// Batch probe pipeline: the throughput-oriented variant of the index nested
// loop join, and the one path every bulk query of the engine takes, for one
// shard or many. Following the parallel-join literature (Tsitsigkos et al.,
// "Parallel In-Memory Evaluation of Spatial Joins" and "Two-layer
// Space-oriented Partitioning"; Kipf et al., "Adaptive Geospatial Joins for
// Modern Hardware"), a batch runs in four stages over one schedule:
//
//  1. Convert. Workers claim blocks of the input and turn each point into
//     a probe key — its leaf cell id truncated at the deepest level any
//     shard indexes (cellid.FromPointsBatch, four points interleaved) —
//     and tally the key range.
//  2. Sort (optional). A parallel LSD radix sort packs the keys with
//     their input positions into one global schedule of words ordered by
//     key, so consecutive probes walk the same trie path and every index
//     cell's points form one run. Without Sorted the schedule is the
//     input order.
//  3. Route. Shards own contiguous cell-id ranges, so the schedule is not
//     split by shard at all: each run of probes resolves against the shard
//     owning its first key, with the index's validity range
//     (cellindex.RangeIndex) clamped to that shard's range, and the whole
//     run shares the answer.
//  4. Probe. The schedule splits into Threads equal contiguous parts, one
//     worker each, whatever the shard count; workers accumulate into
//     private counters, merged once at the end.
//
// The workers start once per batch and meet at a barrier between stages,
// where they spin briefly before parking, so a stage boundary rarely costs
// a goroutine wake-up. All scratch memory
// comes from a pool, so a steady stream of batches allocates only the
// results it returns and the closures that start the extra workers.
package join

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// BatchOptions configure the batch probe pipeline.
type BatchOptions struct {
	Mode Mode
	// Sorted probes the points in ascending cell-id order (results are
	// still reported in input order). Sorting costs up to three O(n)
	// counting passes but maximizes run lengths and trie locality.
	Sorted bool
	// Threads is the worker count of every stage; 0 uses all CPUs, 1 runs
	// single-threaded. It is not divided across shards.
	Threads int
}

// Shard is one contiguous cell-id range of an index as the batch pipeline
// probes it: the probe structure, its lookup table, and the polygon slice
// its references index (nil slots for polygons the shard does not hold).
type Shard struct {
	Index cellindex.Index
	Table *refs.Table
	Polys []*geom.Polygon
}

// leveler is implemented by indexes that know their deepest indexed cell
// level. Leaf-id bits below that level cannot change a probe's answer, so
// the conversion stops there and the sort ignores them.
type leveler interface {
	MaxCellLevel() int
}

// RunBatchCount is Run through the batch pipeline: per-polygon counts with
// sorted probing and run sharing over precomputed leaf cells. pts may be nil
// in Approximate mode, which never touches the geometry.
func RunBatchCount(idx cellindex.Index, table *refs.Table, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt BatchOptions) Result {
	sh := [1]Shard{{Index: idx, Table: table, Polys: polys}}
	_, res := run(sh[:], nil, len(polys), pts, cells, opt, false)
	return res
}

// RunBatchCollect materializes per-point results: out[i] holds the ids of
// the polygons covering the i-th point (nil when none), in the same
// reference order as the single-point query path, regardless of Sorted or
// Threads. pts may be nil in Approximate mode.
func RunBatchCollect(idx cellindex.Index, table *refs.Table, pts []geom.Point, cells []cellid.CellID, polys []*geom.Polygon, opt BatchOptions) ([][]uint32, Result) {
	sh := [1]Shard{{Index: idx, Table: table, Polys: polys}}
	return run(sh[:], nil, len(polys), pts, cells, opt, true)
}

// CountPoints joins a batch of points against an index split into shards:
// shard i owns the leaf ids in [bounds[i-1], bounds[i]) (virtual bounds at
// the ends of the id space, so len(bounds) == len(shards)-1). Counts has
// numPolys slots. Result.Duration covers the whole call, conversion
// included.
func CountPoints(shards []Shard, bounds []cellid.CellID, numPolys int, pts []geom.Point, opt BatchOptions) Result {
	_, res := run(shards, bounds, numPolys, pts, nil, opt, false)
	return res
}

// CollectPoints is CountPoints materializing per-point results, as
// RunBatchCollect.
func CollectPoints(shards []Shard, bounds []cellid.CellID, numPolys int, pts []geom.Point, opt BatchOptions) ([][]uint32, Result) {
	return run(shards, bounds, numPolys, pts, nil, opt, true)
}

// maxSortDigitBits caps the radix digit width of the schedule sort: 2^11
// int32 counters per worker (8 KiB) stay in L1 and keep the scatter's write
// streams few, and three passes order all 32 key bits of a schedule word,
// so every index cell's points end up contiguous.
const maxSortDigitBits = 11

// convertBlock is the unit of work a worker claims in the conversion
// stage. Claiming blocks instead of fixed chunks lets the calling
// goroutine start converting at once while the helpers are still being
// scheduled; a block's keys are still in L1 when the range tally reads
// them back.
const convertBlock = 1024

// pipeline is one batch call's state: the inputs, the scratch buffers and
// the workers. Instances are pooled, so the scratch slices keep their
// capacity from call to call.
type pipeline struct {
	shards    []Shard
	ranges    []cellindex.RangeIndex // per shard; nil when the index has no ranges
	boundKeys []uint64               // the shard bounds as probe keys
	pts       []geom.Point
	cells     []cellid.CellID // precomputed leaves, or nil to convert pts
	n         int
	level     int  // deepest indexed level: conversion stops here
	drop      uint // leaf-id bits below level (2*(30-level)+1)
	sorted    bool
	exact     bool
	collect   bool
	out       [][]uint32

	keys  []uint64 // probe keys, input order
	words []uint64 // schedule words, and the ping-pong buffers of the sort
	spare []uint64
	hist  []int32 // per-worker digit counts of the current pass
	offs  []int32 // per-worker scatter offsets of the current pass

	workers []*probeWorker
	next    atomic.Int64 //act:atomic conversion block cursor
	arrived atomic.Int64 //act:atomic barrier arrivals this batch
	parkMu  sync.Mutex   //act:lock batchpark
	park    sync.Cond    // workers parked at a barrier; L is &parkMu
	wg      sync.WaitGroup
}

// probeWorker is one worker's private accumulator and scratch.
type probeWorker struct {
	local
	cacheHits      int64
	minKey, maxKey uint64
	scratch        []refs.Ref // decoded entry of the current run
	ids            []uint32   // result arena (collect mode)
}

// schedule is the probe order of a batch: one word per point, rel<<32 |
// input position, where rel = (key-minKey)>>coarse. When the batch's key
// range fits in 32 bits, coarse is 0 and a word alone rebuilds its key;
// otherwise the probe reads the exact key back from the input-order keys.
// Point counts must fit in 32 bits.
type schedule struct {
	words  []uint64
	minKey uint64
	coarse uint
}

var pipelinePool = sync.Pool{New: func() any { return new(pipeline) }}

func run(shards []Shard, bounds []cellid.CellID, numPolys int, pts []geom.Point, cells []cellid.CellID, opt BatchOptions, collect bool) ([][]uint32, Result) {
	start := time.Now()
	n := len(pts)
	if cells != nil {
		n = len(cells)
	}
	var out [][]uint32
	if collect {
		out = make([][]uint32, n)
	}
	res := Result{Counts: make([]int64, numPolys), Points: n}
	if n == 0 {
		res.Duration = time.Since(start)
		return out, res
	}
	threads := opt.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	if threads > runtime.GOMAXPROCS(0)*4 {
		threads = runtime.GOMAXPROCS(0) * 4
	}
	if n < 4*batchSize {
		threads = 1
	}

	p := pipelinePool.Get().(*pipeline)
	p.init(shards, bounds, pts, cells, n, threads, numPolys, opt.Sorted, opt.Mode == Exact, out)
	p.wg.Add(threads - 1)
	for w := 1; w < threads; w++ {
		//act:norecover pure-compute batch worker over frozen index state and disjoint scratch ranges; a panic is a broken invariant with no state to contain
		go p.helper(w, threads)
	}
	p.work(0, threads)
	p.wg.Wait()

	for _, w := range p.workers[:threads] {
		for i, c := range w.counts {
			res.Counts[i] += c
		}
		res.Matched += w.matched
		res.PIPTests += w.pipTests
		res.SolelyTrueHits += w.sth
		res.CacheHits += w.cacheHits
	}
	p.release()
	res.Duration = time.Since(start)
	return out, res
}

// init binds a pooled pipeline to one call and sizes its scratch.
func (p *pipeline) init(shards []Shard, bounds []cellid.CellID, pts []geom.Point, cells []cellid.CellID, n, threads, numPolys int, sorted, exact bool, out [][]uint32) {
	p.shards = append(p.shards[:0], shards...)
	p.ranges = p.ranges[:0]
	p.level = 0
	for _, sh := range shards {
		ri, _ := sh.Index.(cellindex.RangeIndex)
		p.ranges = append(p.ranges, ri)
		lv, ok := sh.Index.(leveler)
		switch {
		case !ok:
			p.level = cellid.MaxLevel
		case lv.MaxCellLevel() > p.level:
			p.level = lv.MaxCellLevel()
		}
	}
	// Each bound must survive the truncation, so that a key decides its
	// shard: deepen the level until every bound is a key boundary.
	for _, b := range bounds {
		for p.level < cellid.MaxLevel && uint64(b)&(1<<(2*(cellid.MaxLevel-p.level)+1)-1) != 1 {
			p.level++
		}
	}
	p.drop = uint(2*(cellid.MaxLevel-p.level) + 1)
	p.boundKeys = p.boundKeys[:0]
	for _, b := range bounds {
		p.boundKeys = append(p.boundKeys, uint64(b)>>p.drop)
	}
	p.pts, p.cells, p.n = pts, cells, n
	p.sorted, p.exact, p.collect, p.out = sorted, exact, out != nil, out
	p.keys = grow(p.keys, n)
	p.words = grow(p.words, n)
	p.spare = grow(p.spare, n)
	p.hist = grow(p.hist, threads<<maxSortDigitBits)
	p.offs = grow(p.offs, threads<<maxSortDigitBits)
	p.next.Store(0)
	p.arrived.Store(0)
	p.park.L = &p.parkMu
	for len(p.workers) < threads {
		p.workers = append(p.workers, new(probeWorker))
	}
	for _, w := range p.workers[:threads] {
		w.counts = grow(w.counts, numPolys)
		clear(w.counts)
		w.matched, w.pipTests, w.sth, w.cacheHits = 0, 0, 0, 0
		w.ids = nil
		if p.collect {
			w.ids = make([]uint32, 0, n/threads+batchSize)
		}
	}
}

// release drops every reference to the caller's data and returns the
// pipeline to the pool.
func (p *pipeline) release() {
	clear(p.shards)
	clear(p.ranges)
	p.pts, p.cells, p.out = nil, nil, nil
	for _, w := range p.workers {
		w.ids = nil
	}
	pipelinePool.Put(p)
}

// grow returns s resized to n, reallocating only when its capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (p *pipeline) helper(w, workers int) {
	defer p.wg.Done()
	p.work(w, workers)
}

// work runs every stage for worker w: convert, schedule, probe.
func (p *pipeline) work(w, workers int) {
	s := p.stages(w, workers)
	lo, hi := chunk(p.n, w, workers)
	p.probeRuns(p.workers[w], &s, lo, hi)
}

// stages runs worker w's share of the conversion and the schedule sort and
// returns the schedule, identical in every worker. A sorted schedule is
// complete on return; an unsorted one is complete in the worker's own
// probe part.
func (p *pipeline) stages(w, workers int) schedule {
	p.convert(w)
	p.barrier(workers)
	pl := p.plan(workers)
	if pl.passes == 0 {
		// Input order: each worker packs its own chunk, which is the part
		// of the schedule it goes on to probe.
		lo, hi := chunk(p.n, w, workers)
		for i, k := range p.keys[lo:hi] {
			p.words[lo+i] = pl.word(k, lo+i)
		}
		return schedule{words: p.words[:p.n], minKey: pl.minKey, coarse: pl.coarse}
	}
	bufs := [2][]uint64{p.words, p.spare}
	if pl.coarse == 0 {
		// Exact word keys: the first pass packs the input keys, which are
		// then dead and serve as the second buffer.
		bufs[1] = p.keys
	}
	var src []uint64
	for i := uint(0); i < pl.passes; i++ {
		shift := i * pl.digit
		pass := sortPass{src: src, dst: bufs[i%2], shift: shift, bits: min(pl.digit, pl.sortBits-shift)}
		p.histogram(w, workers, &pl, &pass)
		p.barrier(workers)
		p.scatter(w, workers, &pl, &pass)
		p.barrier(workers)
		src = pass.dst
	}
	return schedule{words: src[:p.n], minKey: pl.minKey, coarse: pl.coarse}
}

// barrierSpins bounds how long a worker spins at a barrier, yielding its P
// on every turn, before it parks. Stages are short and balanced, so a
// spinning worker usually sees the last arrival within a few microseconds,
// where parking would cost a wake-up longer than most stages; parking
// after the budget keeps spinners from starving the workers they wait for
// when there are more workers than CPUs.
const barrierSpins = 256

// barrier returns once all workers of the batch have called it as often
// as this one.
func (p *pipeline) barrier(workers int) {
	if workers == 1 {
		return
	}
	n := int64(workers)
	arrived := p.arrived.Add(1)
	target := (arrived + n - 1) / n * n
	if arrived == target {
		// Last to arrive: wake the workers that parked.
		p.parkMu.Lock()
		p.park.Broadcast()
		p.parkMu.Unlock()
		return
	}
	for i := 0; i < barrierSpins; i++ {
		if p.arrived.Load() >= target {
			return
		}
		runtime.Gosched()
	}
	p.parkMu.Lock()
	for p.arrived.Load() < target {
		p.park.Wait()
	}
	p.parkMu.Unlock()
}

// chunk returns worker w's share [lo, hi) of n items split evenly.
func chunk(n, w, workers int) (lo, hi int) {
	return n * w / workers, n * (w + 1) / workers
}

// convert is stage 1: probe keys for the blocks of the input worker w
// claims, and their key range.
func (p *pipeline) convert(w int) {
	minKey, maxKey := ^uint64(0), uint64(0)
	for {
		b := int(p.next.Add(convertBlock)) - convertBlock
		if b >= p.n {
			break
		}
		e := min(b+convertBlock, p.n)
		keys := p.keys[b:e]
		if p.cells != nil {
			for i, c := range p.cells[b:e] {
				keys[i] = uint64(c) >> p.drop
			}
		} else {
			cellid.FromPointsBatch(keys, p.pts[b:e], p.level)
		}
		for _, k := range keys {
			minKey = min(minKey, k)
			maxKey = max(maxKey, k)
		}
	}
	p.workers[w].minKey, p.workers[w].maxKey = minKey, maxKey
}

// sortPlan is the shape of the schedule sort, derived from the workers'
// key ranges.
type sortPlan struct {
	minKey   uint64
	coarse   uint // key bits below a word's 32-bit key
	sortBits uint // word key bits the sort orders: all of them, or 0 unsorted
	passes   uint // counting passes, 0 when the schedule keeps input order
	digit    uint
}

// plan derives the sort's shape once every worker has converted its
// blocks. Each worker computes it on its own, from the same inputs.
func (p *pipeline) plan(workers int) sortPlan {
	minKey, maxKey := ^uint64(0), uint64(0)
	for _, w := range p.workers[:workers] {
		minKey = min(minKey, w.minKey)
		maxKey = max(maxKey, w.maxKey)
	}
	keyBits := uint(bits.Len64(maxKey - minKey))
	relBits := min(keyBits, 32)
	pl := sortPlan{minKey: minKey, coarse: keyBits - relBits}
	if p.sorted && relBits > 0 {
		pl.sortBits = relBits
		pl.passes = (pl.sortBits + maxSortDigitBits - 1) / maxSortDigitBits
		pl.digit = (pl.sortBits + pl.passes - 1) / pl.passes
	}
	return pl
}

// sortPass is one stable counting pass of the schedule sort: it moves src
// to dst ordered on the digit (rel>>shift) mod 2^bits of each word's key.
// The first pass has no src: it packs the words from the input keys.
type sortPass struct {
	src, dst []uint64
	shift    uint
	bits     uint
}

// word packs the key at input position i into a schedule word.
func (pl *sortPlan) word(key uint64, i int) uint64 {
	return (key-pl.minKey)>>pl.coarse<<32 | uint64(i)
}

// histogram counts the digits of worker w's chunk of the pass input.
func (p *pipeline) histogram(w, workers int, pl *sortPlan, s *sortPass) {
	lo, hi := chunk(p.n, w, workers)
	h := p.hist[w<<maxSortDigitBits:][:1<<s.bits]
	clear(h)
	mask := uint64(len(h) - 1)
	if s.src == nil {
		for i, k := range p.keys[lo:hi] {
			h[pl.word(k, lo+i)>>(32+s.shift)&mask]++
		}
		return
	}
	for _, v := range s.src[lo:hi] {
		h[v>>(32+s.shift)&mask]++
	}
}

// scatter moves worker w's chunk of the pass input to its place in the
// pass output. Its offsets come from every worker's digit counts: its
// words of digit d land after every word of a smaller digit and after the
// digit-d words of the workers before it, so the pass is stable.
func (p *pipeline) scatter(w, workers int, pl *sortPlan, s *sortPass) {
	lo, hi := chunk(p.n, w, workers)
	off := p.offs[w<<maxSortDigitBits:][:1<<s.bits]
	sum := int32(0)
	for d := range off {
		for v := 0; v < workers; v++ {
			if v == w {
				off[d] = sum
			}
			sum += p.hist[v<<maxSortDigitBits+d]
		}
	}
	mask := uint64(len(off) - 1)
	dst := s.dst[:p.n]
	if s.src == nil {
		for i, k := range p.keys[lo:hi] {
			v := pl.word(k, lo+i)
			d := v >> (32 + s.shift) & mask
			dst[off[d]] = v
			off[d]++
		}
		return
	}
	for _, v := range s.src[lo:hi] {
		d := v >> (32 + s.shift) & mask
		dst[off[d]] = v
		off[d]++
	}
}

// shardOf returns the shard owning a probe key.
func (p *pipeline) shardOf(key uint64) int {
	si := 0
	for si < len(p.boundKeys) && key >= p.boundKeys[si] {
		si++
	}
	return si
}

// probeRuns probes schedule positions [begin, end) run by run: the first
// key of a run is routed to its shard and resolved with one trie walk and
// one entry decode; the run then extends over every following key inside
// the answer's validity range, clamped to the shard's own range (a false-hit
// gap of one shard may reach into the next shard's keys), and the outcome
// is applied to the whole run at once. Only exact-mode candidate refs cost
// per-point work, because their PIP tests depend on the point. Indexes
// without validity ranges resolve every point on its own.
//
//act:hotpath
func (p *pipeline) probeRuns(w *probeWorker, s *schedule, begin, end int) {
	sched := s.words[:end]
	drop := p.drop
	var matched, sth, hits, pipTests int64
	for k := begin; k < end; {
		key := p.key(s, sched[k])
		leaf := cellid.CellID(key<<drop | 1)
		si := p.shardOf(key)
		sh := &p.shards[si]
		var entry refs.Entry
		runEnd := k + 1
		if ri := p.ranges[si]; ri != nil {
			var lo, hi cellid.CellID
			entry, lo, hi = ri.FindRange(leaf)
			loKey, hiKey := uint64(lo)>>drop, uint64(hi)>>drop
			if si > 0 {
				loKey = max(loKey, p.boundKeys[si-1])
			}
			if si < len(p.boundKeys) {
				hiKey = min(hiKey, p.boundKeys[si]-1)
			}
			// The scan checks both ends of the range, as one unsigned
			// compare: an unsorted schedule is in input order.
			if s.coarse == 0 {
				// Compare word keys directly: rel = key-minKey, and
				// every key of the batch is at least minKey.
				loRel := max(loKey, s.minKey) - s.minKey
				span := min(hiKey, s.minKey+1<<32-1) - s.minKey - loRel
				for runEnd < end && sched[runEnd]>>32-loRel <= span {
					runEnd++
				}
			} else {
				for runEnd < end && p.keys[uint32(sched[runEnd])]-loKey <= hiKey-loKey {
					runEnd++
				}
			}
			hits += int64(runEnd - k - 1)
		} else {
			entry = sh.Index.Find(leaf)
		}
		runLen := int64(runEnd - k)
		if entry.IsFalseHit() {
			sth += runLen
			k = runEnd
			continue
		}
		w.scratch = sh.Table.AppendRefs(w.scratch[:0], entry)
		rs := w.scratch
		nCand := 0
		for _, r := range rs {
			if !r.Interior() {
				nCand++
			}
		}
		if p.exact && nCand > 0 {
			// Refine per point, in entry order like the single-point path.
			for kk := k; kk < runEnd; kk++ {
				i := int(uint32(sched[kk]))
				arenaStart := len(w.ids)
				hadMatch := false
				for _, r := range rs {
					pid := r.PolygonID()
					if !r.Interior() {
						pipTests++
						if !sh.Polys[pid].ContainsPoint(p.pts[i]) {
							continue
						}
					}
					w.counts[pid]++
					hadMatch = true
					if p.collect {
						w.ids = append(w.ids, pid)
					}
				}
				if hadMatch {
					matched++
				}
				if p.collect && len(w.ids) > arenaStart {
					p.out[i] = w.ids[arenaStart:len(w.ids):len(w.ids)]
				}
			}
			k = runEnd
			continue
		}
		// The outcome is identical for every point of the run.
		for _, r := range rs {
			w.counts[r.PolygonID()] += runLen
		}
		if len(rs) > 0 {
			matched += runLen
		}
		if nCand == 0 {
			sth += runLen
		}
		if p.collect && len(rs) > 0 {
			for kk := k; kk < runEnd; kk++ {
				arenaStart := len(w.ids)
				for _, r := range rs {
					w.ids = append(w.ids, r.PolygonID())
				}
				p.out[uint32(sched[kk])] = w.ids[arenaStart:len(w.ids):len(w.ids)]
			}
		}
		k = runEnd
	}
	w.matched += matched
	w.sth += sth
	w.cacheHits += hits
	w.pipTests += pipTests
}

// key rebuilds the probe key of a schedule word.
func (p *pipeline) key(s *schedule, word uint64) uint64 {
	if s.coarse == 0 {
		return s.minKey + word>>32
	}
	return p.keys[uint32(word)]
}
