package main

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/cover"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// The shadow is a second, unsharded copy of the index that a traced run
// builds from the same polygons through the layers' exported functions —
// supercover.Build and RefineToPrecision, the cellindex encoder and
// act.Build — with the engine's default budgets. Every batch and every
// mutation of the traced run is replayed through it, one timed span per
// layer call, so the per-layer numbers come from the benchmark's own files
// without touching the engine. The shadow must agree with the public index
// cell for cell; a traced run fails when it does not.

// Engine defaults the shadow mirrors (see buildOptions in the actjoin
// package): covering and interior budgets, interior level cap and the trie
// granularity.
const (
	coveringCells = 128
	interiorCells = 256
	interiorLevel = 20
	// Background-compaction triggers: the shadow rebuilds (untimed) where
	// the engine would compact off the writer's path.
	arenaGarbageMax = 0.25
	tableGarbageMax = 0.50
)

// shadowView is an immutable probe structure of the shadow: the state a
// reader replays batches against while the writer keeps patching.
type shadowView struct {
	tree  *act.Tree
	table *refs.Table
	polys []*geom.Polygon
}

// shadow is the writer side of the shadow index. Only the writer goroutine
// touches it; readers load the latest view.
type shadow struct {
	polys     []*geom.Polygon
	sc        *supercover.SuperCovering
	cells     cellList
	enc       *cellindex.Encoder
	tree      *act.Tree
	precision float64
	level     int                        // build-time refinement level
	view      atomic.Pointer[shadowView] //act:atomic
	rebuilds  int                        // full re-encodes, reported with the traced run
}

// buildShadow builds the shadow over the polygons.
func buildShadow(polys []*geom.Polygon, precision float64) *shadow {
	sc := supercover.Build(polys, supercover.Options{
		Covering: cover.Options{MaxCells: coveringCells},
		Interior: cover.Options{MaxCells: interiorCells, MaxLevel: interiorLevel},
	})
	s := &shadow{polys: append([]*geom.Polygon(nil), polys...), sc: sc, precision: precision}
	s.level = cellid.LevelForMaxDiagonalMeters(precision, dataset.MBR(polys).Center().Y)
	sc.RefineToPrecision(s.polys, s.level)
	s.rebuild()
	return s
}

// rebuild re-encodes the whole covering and builds a fresh trie: the
// shadow's first freeze and its stand-in for a compaction.
func (s *shadow) rebuild() {
	s.sc.TakeDirty()
	cells := s.sc.Cells()
	s.enc = cellindex.NewEncoder()
	kvs := s.enc.EncodeFrozen(cells)
	s.tree = act.Build(kvs, act.Delta4)
	s.cells = newCellList(cells)
	s.rebuilds++
	s.freeze()
}

func (s *shadow) freeze() {
	s.view.Store(&shadowView{tree: s.tree, table: s.enc.Table().Freeze(), polys: s.polys})
}

// checkFidelity compares the shadow's cell counts with the public count.
func (s *shadow) checkFidelity(public int) error {
	if s.cells.n != public || s.tree.NumCells() != public {
		return fmt.Errorf("shadow fidelity: shadow has %d cells (trie %d), public index %d", s.cells.n, s.tree.NumCells(), public)
	}
	return nil
}

// mutationTotals accumulates the publish-side layer work of a traced run.
type mutationTotals struct {
	adds, removes, publishes int
	dirtyCells               int // cells released plus cells emitted
}

// replayAdd replays an Add of gp, which the public index assigned id,
// under the public call's span.
func (s *shadow) replayAdd(tr *tracer, parent, seq int32, gp *geom.Polygon, id uint32, mt *mutationTotals) error {
	if int(id) != len(s.polys) {
		return fmt.Errorf("shadow: public Add assigned id %d, shadow expects %d", id, len(s.polys))
	}
	t0 := time.Now()
	covering := cover.Covering(gp, cover.Options{MaxCells: coveringCells})
	interior := cover.InteriorCovering(gp, cover.Options{MaxCells: interiorCells, MaxLevel: interiorLevel})
	t1 := time.Now()
	tr.add("cover.Covering", parent, seq, t0, t1)

	s.polys = append(s.polys, gp)
	t0 = time.Now()
	for _, c := range covering {
		s.sc.Insert(c, []refs.Ref{refs.MakeRef(id, false)})
	}
	for _, c := range interior {
		s.sc.Insert(c, []refs.Ref{refs.MakeRef(id, true)})
	}
	s.sc.RefineCells(s.polys, covering, s.addLevel(gp))
	tr.add("supercover.Refine", parent, seq, t0, time.Now())
	mt.adds++
	s.publish(tr, parent, seq, mt)
	return nil
}

// replayRemove replays a Remove of id under the public call's span.
func (s *shadow) replayRemove(tr *tracer, parent, seq int32, id uint32, mt *mutationTotals) {
	t0 := time.Now()
	s.sc.RemovePolygon(id)
	tr.add("supercover.RemovePolygon", parent, seq, t0, time.Now())
	mt.removes++
	s.publish(tr, parent, seq, mt)
}

// addLevel mirrors the engine's Add refinement level: the meter bound
// re-derived at the polygon's equator-nearest latitude, never coarser than
// the build level.
func (s *shadow) addLevel(gp *geom.Polygon) int {
	b := gp.Bound()
	lat := 0.0
	switch {
	case b.Lo.Y > 0:
		lat = b.Lo.Y
	case b.Hi.Y < 0:
		lat = b.Hi.Y
	}
	if l := cellid.LevelForMaxDiagonalMeters(s.precision, lat); l > s.level {
		return l
	}
	return s.level
}

// publish replays the incremental freeze: emit the dirty regions, encode
// them against the released old entries, patch the trie, then splice the
// shadow's cell list and publish a new view (bookkeeping, untimed).
func (s *shadow) publish(tr *tracer, parent, seq int32, mt *mutationTotals) {
	mt.publishes++
	t0 := time.Now()
	roots, all := s.sc.TakeDirty()
	regions := make([][]supercover.Cell, len(roots))
	ok := !all
	var buf []supercover.Cell
	for i, r := range roots {
		if !ok {
			break
		}
		start := len(buf)
		buf, ok = s.sc.AppendRegion(buf, r)
		regions[i] = buf[start:len(buf):len(buf)]
	}
	tr.add("supercover.Emit", parent, seq, t0, time.Now())
	if !ok {
		t0 = time.Now()
		s.rebuild()
		tr.add("act.Patch", parent, seq, t0, time.Now())
		return
	}

	// Old entries of every region, looked up before the encoder runs.
	var olds [][]refs.Entry
	total := s.cells.n
	for _, r := range roots {
		old := s.cells.appendRange(nil, r.RangeMin(), r.RangeMax())
		es := make([]refs.Entry, len(old))
		for i, c := range old {
			es[i] = s.tree.Find(c.ID.RangeMin())
		}
		olds = append(olds, es)
	}

	t0 = time.Now()
	s.enc.Begin()
	var kvs []cellindex.KeyEntry
	patch := make([]act.PatchRegion, len(roots))
	for i, r := range roots {
		for _, e := range olds[i] {
			s.enc.Release(e)
		}
		start := len(kvs)
		kvs = s.enc.AppendCells(kvs, regions[i])
		patch[i] = act.PatchRegion{Root: r, KVs: kvs[start:len(kvs):len(kvs)]}
		total += len(regions[i]) - len(olds[i])
		mt.dirtyCells += len(regions[i]) + len(olds[i])
	}
	t1 := time.Now()
	tr.add("cellindex.Encoder", parent, seq, t0, t1)

	nt, patched := s.tree.Patch(patch, total)
	t2 := time.Now()
	if !patched {
		s.enc.Rollback()
		s.rebuild()
		tr.add("act.Patch", parent, seq, t1, time.Now())
		return
	}
	s.enc.Commit()
	tr.add("cellindex.Encoder", parent, seq, t2, time.Now())
	tr.add("act.Patch", parent, seq, t1, t2)

	s.tree = nt
	s.cells.replaceRegions(roots, regions)
	if s.tree.GarbageRatio() > arenaGarbageMax || s.enc.GarbageRatio() > tableGarbageMax {
		s.rebuild()
		return
	}
	s.freeze()
}

// joinTotals accumulates the join-side layer work of a traced run.
type joinTotals struct {
	points, probes  int64
	nodes           float64 // summed node accesses of the replayed run heads
	pipTests, trues int64
}

// replayScratch holds a reader's reusable replay buffers.
type replayScratch struct {
	cells   []cellid.CellID
	perm    []int32
	sorted  []int32 // gathered positions, sorted by cell within each shard
	heads   []cellid.CellID
	runs    []part // positions in sorted of each head's run
	entries []refs.Entry
	pip     []pipTask
	refs    [][]refs.Ref // one buffer per replay goroutine
}

// pipTask is one candidate refinement: polygon id and gathered point
// position.
type pipTask struct {
	poly uint32
	pt   int32
}

// part is a contiguous range of a replay phase's work, handled by one
// goroutine.
type part struct{ lo, hi int }

// fanOut runs fn over the parts side by side, one goroutine each (inline
// when there is one), and waits for all of them.
func fanOut(parts []part, fn func(i int, p part)) {
	if len(parts) == 1 {
		fn(0, parts[0])
		return
	}
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		//act:norecover benchmark replay over an immutable shadow view; a panic aborts the run, which is the correct outcome
		go func(i int, p part) {
			defer wg.Done()
			fn(i, p)
		}(i, p)
	}
	wg.Wait()
}

// split cuts [lo, hi) into k nearly equal parts, appended to dst.
func split(dst []part, lo, hi, k int) []part {
	chunk := (hi - lo + k - 1) / k
	for b := lo; b < hi; b += chunk {
		dst = append(dst, part{b, min(b+chunk, hi)})
	}
	return dst
}

// replayBatch replays one JoinCount batch through the layers, under the
// public call's span, with the engine's parallel structure at the given
// thread budget (see ShardedSnapshot.JoinCount): the point→cell
// conversion in the engine's chunks and goroutines; the shard split, with
// bounds found by walking the public shardOf along the sorted cells; then
// the batch pipeline on the shadow, every shard's sub-stream side by side
// with the engine's per-shard thread share. The pipeline's inner layers are
// replayed shard by shard side by side in the same way — a trie probe per
// sorted run, a reference decode per run and every PIP test — as children
// of the pipeline span, whose self time is then the gather, sort and loop
// overhead. Every span is the wall time of its phase, so a span and its
// children compare like with like.
func (v *shadowView) replayBatch(tr *tracer, parent, seq int32, pts []geom.Point, shardOf func(geom.Point) int, shards, threads int, sc *replayScratch, jt *joinTotals) {
	n := len(pts)
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	cells := slices.Grow(sc.cells[:0], n)[:n]
	t0 := time.Now()
	fanOut(split(nil, 0, n, max(min(threads, n/4096), 1)), func(_ int, p part) {
		for i := p.lo; i < p.hi; i++ {
			cells[i] = cellid.FromPoint(pts[i])
		}
	})
	tr.add("cellid.FromPoint", parent, seq, t0, time.Now())
	sc.cells = cells

	// Sorted order and the shard bounds it implies (untimed).
	perm := slices.Grow(sc.perm[:0], n)[:n]
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int { return cmp.Compare(cells[a], cells[b]) })
	sc.perm = perm
	var bounds []cellid.CellID
	for s := 0; s < shards-1; s++ {
		k := sort.Search(n, func(k int) bool { return shardOf(pts[perm[k]]) > s })
		if k == n {
			break
		}
		bounds = append(bounds, cells[perm[k]])
	}

	t0 = time.Now()
	order, offsets := join.PartitionByShard(cells, bounds)
	tr.add("join.PartitionByShard", parent, seq, t0, time.Now())

	// The batch pipeline, as the engine's shard fan-out runs it: gather the
	// sub-streams, then one goroutine per shard with probes.
	t0 = time.Now()
	var shardParts []part
	for s := 0; s+1 < len(offsets); s++ {
		if offsets[s+1] > offsets[s] {
			shardParts = append(shardParts, part{offsets[s], offsets[s+1]})
		}
	}
	sub := max(threads/len(shardParts), 1)
	gcells := make([]cellid.CellID, n)
	gpts := make([]geom.Point, n)
	for k, idx := range order {
		gcells[k], gpts[k] = cells[idx], pts[idx]
	}
	opt := join.BatchOptions{Mode: join.Exact, Sorted: true, Threads: sub}
	fanOut(shardParts, func(_ int, p part) {
		join.RunBatchCount(v.tree, v.table, gpts[p.lo:p.hi], gcells[p.lo:p.hi], v.polys, opt)
	})
	batch := tr.add("join.RunBatchCount", parent, seq, t0, time.Now())

	// Runs of every shard's sorted sub-stream, and the work parts of the
	// inner replays: each shard's runs cut into its thread share (untimed).
	// One probe answers every point of a run, up to the run's range end.
	srt := slices.Grow(sc.sorted[:0], n)[:n]
	heads, runs := sc.heads[:0], sc.runs[:0]
	var headParts []part
	for _, p := range shardParts {
		seg := srt[p.lo:p.hi]
		for k := range seg {
			seg[k] = int32(p.lo + k)
		}
		slices.SortFunc(seg, func(a, b int32) int { return cmp.Compare(gcells[a], gcells[b]) })
		h0 := len(heads)
		for k := p.lo; k < p.hi; {
			leaf, start := gcells[srt[k]], k
			_, _, hi := v.tree.FindRange(leaf)
			k++
			for k < p.hi && gcells[srt[k]] <= hi {
				k++
			}
			heads = append(heads, leaf)
			runs = append(runs, part{start, k})
		}
		headParts = split(headParts, h0, len(heads), sub)
	}
	sc.sorted, sc.heads, sc.runs = srt, heads, runs
	for len(sc.refs) < len(headParts) {
		sc.refs = append(sc.refs, nil)
	}

	entries := slices.Grow(sc.entries[:0], len(heads))[:len(heads)]
	t0 = time.Now()
	fanOut(headParts, func(_ int, p part) {
		for i := p.lo; i < p.hi; i++ {
			entries[i], _, _ = v.tree.FindRange(heads[i])
		}
	})
	tr.add("act.FindRange", batch, seq, t0, time.Now())
	sc.entries = entries

	t0 = time.Now()
	fanOut(headParts, func(w int, p part) {
		for _, e := range entries[p.lo:p.hi] {
			if !e.IsFalseHit() {
				sc.refs[w] = v.table.AppendRefs(sc.refs[w][:0], e)
			}
		}
	})
	tr.add("refs.AppendRefs", batch, seq, t0, time.Now())

	// Candidate refinements of every run, grouped by work part (untimed),
	// then the PIP tests.
	pip := sc.pip[:0]
	pipParts := make([]part, len(headParts))
	for w, p := range headParts {
		pipParts[w].lo = len(pip)
		for i := p.lo; i < p.hi; i++ {
			if entries[i].IsFalseHit() {
				continue
			}
			sc.refs[w] = v.table.AppendRefs(sc.refs[w][:0], entries[i])
			for _, r := range sc.refs[w] {
				if r.Interior() {
					continue
				}
				for k := runs[i].lo; k < runs[i].hi; k++ {
					pip = append(pip, pipTask{poly: r.PolygonID(), pt: srt[k]})
				}
			}
		}
		pipParts[w].hi = len(pip)
	}
	sc.pip = pip
	trues := make([]int64, len(pipParts))
	t0 = time.Now()
	fanOut(pipParts, func(w int, p part) {
		for _, t := range pip[p.lo:p.hi] {
			if v.polys[t.poly].ContainsPoint(gpts[t.pt]) {
				trues[w]++
			}
		}
	})
	tr.add("geom.ContainsPoint", batch, seq, t0, time.Now())

	jt.points += int64(n)
	jt.probes += int64(len(heads))
	jt.nodes += join.CountACT(v.tree, heads).NodeAccesses * float64(len(heads))
	jt.pipTests += int64(len(pip))
	for _, t := range trues {
		jt.trues += t
	}
}

// cellList is the shadow's frozen cell sequence: sorted, disjoint cells
// held in chunks, so a publish splices its regions without copying the
// whole covering.
type cellList struct {
	chunks [][]supercover.Cell
	n      int
}

const chunkCells = 1024

func newCellList(cells []supercover.Cell) cellList {
	return cellList{chunks: splitChunks(cells), n: len(cells)}
}

func splitChunks(cells []supercover.Cell) [][]supercover.Cell {
	var out [][]supercover.Cell
	for len(cells) > 0 {
		k := min(chunkCells, len(cells))
		out = append(out, cells[:k:k])
		cells = cells[k:]
	}
	return out
}

// seek returns the position of the first cell whose range ends at or after
// lo: chunk index and offset (chunk index len(chunks) when none).
func (l *cellList) seek(lo cellid.CellID) (int, int) {
	ci := sort.Search(len(l.chunks), func(i int) bool {
		ch := l.chunks[i]
		return ch[len(ch)-1].ID.RangeMax() >= lo
	})
	if ci == len(l.chunks) {
		return ci, 0
	}
	ch := l.chunks[ci]
	return ci, sort.Search(len(ch), func(i int) bool { return ch[i].ID.RangeMax() >= lo })
}

// appendRange appends the cells intersecting [lo, hi] to dst.
func (l *cellList) appendRange(dst []supercover.Cell, lo, hi cellid.CellID) []supercover.Cell {
	ci, p := l.seek(lo)
	for ; ci < len(l.chunks); ci, p = ci+1, 0 {
		ch := l.chunks[ci]
		for ; p < len(ch); p++ {
			if ch[p].ID.RangeMin() > hi {
				return dst
			}
			dst = append(dst, ch[p])
		}
	}
	return dst
}

// replaceRegions swaps, for every root, the cells inside the root's range
// for the root's region (roots sorted and disjoint, regions sorted within
// their roots). Untouched chunks are kept by reference; chunks a root cuts
// into are copied once.
func (l *cellList) replaceRegions(roots []cellid.CellID, regions [][]supercover.Cell) {
	var out [][]supercover.Cell
	var cur []supercover.Cell // kept and new cells not yet chunked
	flush := func() {
		out = append(out, splitChunks(cur)...)
		cur = nil
	}
	ci, p := 0, 0
	// keepBefore moves every cell ending before lo to the output.
	keepBefore := func(lo cellid.CellID) {
		for ci < len(l.chunks) {
			ch := l.chunks[ci]
			if p == 0 && ch[len(ch)-1].ID.RangeMax() < lo {
				flush()
				out = append(out, ch)
				ci++
				continue
			}
			for p < len(ch) && ch[p].ID.RangeMax() < lo {
				cur = append(cur, ch[p])
				p++
			}
			if p < len(ch) {
				return
			}
			ci, p = ci+1, 0
		}
	}
	n := l.n
	for i, r := range roots {
		keepBefore(r.RangeMin())
		hi := r.RangeMax()
		for ci < len(l.chunks) {
			ch := l.chunks[ci]
			for p < len(ch) && ch[p].ID.RangeMin() <= hi {
				p++
				n--
			}
			if p < len(ch) {
				break
			}
			ci, p = ci+1, 0
		}
		cur = append(cur, regions[i]...)
		n += len(regions[i])
	}
	keepBefore(^cellid.CellID(0))
	flush()
	l.chunks, l.n = out, n
}
