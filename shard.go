package actjoin

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// shard is one partition of an Index: the writer of one contiguous cell-id
// range. It owns the mutable build-side state of its range (the super
// covering), freezes it into immutable shardSnapshots, and runs its own
// incremental publishes, background compactor and failure containment, so
// shards mutate, publish, compact, degrade and quarantine independently.
// The Index routes mutations to shards and composes their snapshots; no
// shard method calls back into the Index.
//
// Concurrency contract: mutations serialize on mu, rebuild the frozen
// structures off to the side, and publish the result with a single atomic
// pointer swap — they never block queries, and queries never block them.
type shard struct {
	noCopy noCopy

	// mu serializes writers; it is never held on any query path.
	mu sync.Mutex //act:lock mu

	//act:published
	//act:atomic
	cur atomic.Pointer[shardSnapshot]

	// Writer-side state. polys is copy-on-write: published snapshots share
	// the slice, so the first mutation after a publish replaces it instead
	// of editing it in place (polysShared tracks whether the current slice
	// is aliased by a snapshot).
	sc          *supercover.SuperCovering //act:guarded mu
	polys       []*geom.Polygon           //act:guarded mu
	polysShared bool                      //act:guarded mu

	// enc carries the shared lookup table across incremental publishes
	// (garbage-tracked, compacted on full rebuilds and replaced wholesale
	// when a background compaction lands); kvScratch recycles the
	// per-publish dirty-region encoding buffer. patched/full count the
	// publishes each path served (diagnostics, read under mu).
	enc       *cellindex.Encoder   //act:guarded mu
	kvScratch []cellindex.KeyEntry //act:guarded mu
	patched   int                  //act:guarded mu
	full      int                  //act:guarded mu

	// compacting is the in-flight background compaction, nil when none (see
	// compaction.go). The counters track cycle starts and landings. The
	// compactor goroutine takes mu to land its result.
	compacting         *compaction //act:guarded mu
	compactionsStarted int         //act:guarded mu
	compactionsLanded  int         //act:guarded mu

	// Failure-domain state (see compaction.go for the containment design).
	// closed marks a closed shard: mutations fail with ErrClosed, no new
	// compactions start. fullNext forces the next publish down the full
	// freeze after a failed publish left the encoder's table torn — the
	// full path rebuilds it to consistency from scratch. The counters feed
	// PublishStats.
	closed          bool //act:guarded mu
	fullNext        bool //act:guarded mu
	publishPanics   int  //act:guarded mu
	reconcileAborts int  //act:guarded mu
	replayPoisoned  int  //act:guarded mu

	// Compactor failure bookkeeping is atomic, not mu-guarded, on purpose:
	// the goroutine records failures while a writer may be blocked on the
	// build (the hard-cap wait on c.done) holding mu, so the failure path
	// must stay lock-free (see noteCompactorFailure). compactorWG tracks
	// the goroutine itself for Close.
	compactionsFailed     atomic.Int64               //act:atomic
	consecCompactFailures atomic.Int64               //act:atomic
	quarantined           atomic.Pointer[quarantine] //act:atomic
	compactorWG           sync.WaitGroup

	// Test hooks (same-package tests and benchmarks only). The first three
	// select the reference paths the shipped ones are differential-tested
	// and benchmarked against: fullPublish freezes the whole covering on
	// every publish instead of patching the previous snapshot;
	// inlineCompaction rebuilds inline at every garbage-threshold crossing
	// instead of compacting in the background (the same fallback a
	// quarantined or closed shard takes); walkRemoval removes a polygon by
	// walking the whole covering instead of following the per-polygon cell
	// directory. Results and published bytes are identical either way.
	// holdCompaction, when non-nil, parks every finished compaction until
	// the channel is closed, so tests can deterministically observe the
	// pending-ready state; failPatches forces the next n patch attempts to
	// abort after staging, exercising the encoder rollback path;
	// compactRetryBase (0 = default) shortens the compactor's retry
	// backoff so failure tests run fast.
	fullPublish      bool          //act:guarded mu
	inlineCompaction bool          //act:guarded mu
	walkRemoval      bool          //act:guarded mu
	holdCompaction   chan struct{} //act:guarded mu
	failPatches      int           //act:guarded mu
	compactRetryBase time.Duration //act:guarded mu

	opt            options // immutable after construction
	precisionLevel int     // immutable after construction
}

// noCopy triggers go vet's copylocks analyzer on by-value copies of the
// struct embedding it. It has no runtime effect.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// Current returns the shard's most recently published snapshot: a single
// atomic load.
func (sh *shard) Current() *shardSnapshot { return sh.cur.Load() }

// Publish thresholds: a patch is only attempted while the mutation's dirty
// footprint stays a small fraction of the index and while the garbage that
// patching accumulates (orphaned trie nodes, tombstoned lookup-table
// records) stays below its compaction triggers. Crossing a garbage trigger
// starts a background compaction (or, where background compaction is off —
// see bgCompactionOffLocked — an inline rebuild); while a compaction is in
// flight the writer keeps patching up to the hard caps in compaction.go.
const (
	publishMaxDirtyFraction = 0.25 // dirty cells vs previous snapshot cells
	arenaMaxGarbageFraction = 0.25 // orphaned arena slots before compaction
	tableMaxGarbageFraction = 0.50 // tombstoned table words before compaction
)

// publish freezes the writer-side state into a new immutable snapshot and
// swaps it in; //act:requires states the calling contract (constructors
// owning a fresh, unshared shard are covered by //act:exclusive).
//
// In steady state the freeze is incremental: the covering reports the dirty
// subtree roots of the staged mutations, and the new snapshot is assembled
// by patching the previous one — clean cell runs are spliced by reference,
// only dirty regions are re-emitted and re-encoded, and the trie arena is
// copied flat and rebuilt only under the dirty roots. The full rebuild
// remains the fallback for bulk mutations (including the first publish) and
// for whatever the incremental paths — patching and background compaction —
// cannot absorb.
//
// Failure domain: both paths run under panic guards. A panic in the
// incremental machinery falls back to the full freeze; a panic in the full
// freeze itself rewinds the writer to the published snapshot (discarding
// the staged mutations), replaces the possibly-torn encoder, and returns
// the error — the published snapshot is never replaced by partial state,
// and the writer stays usable.
//
//act:requires mu
//act:publisher
func (sh *shard) publish() error {
	if sh.enc == nil {
		sh.enc = cellindex.NewEncoder()
	}
	prev := sh.cur.Load()
	roots, all := sh.sc.TakeDirty()
	if c := sh.compacting; c != nil {
		// Whatever this publish changes must be re-applied onto the fresh
		// base before the in-flight compaction may land.
		c.addReplay(roots, all)
	}
	var s *shardSnapshot
	if prev != nil && !all && !sh.fullPublish && !sh.fullNext {
		s = sh.publishIncrementalGuarded(prev, roots)
	}
	if s == nil {
		sh.abandonCompactionLocked()
		var err error
		if s, err = sh.publishFullGuarded(); err != nil {
			sh.recoverFailedPublish(prev, roots, all)
			return err
		}
		sh.full++
		sh.fullNext = false
	} else {
		sh.patched++
	}
	sh.polysShared = true // the snapshot aliases sh.polys from here on
	sh.cur.Store(s)
	return nil
}

// publishIncrementalGuarded runs the incremental publish under a panic
// guard: a panic anywhere in the patch machinery — injected or real — is
// recovered and reported as "no incremental result", which sends the caller
// down the full-freeze path. No explicit journal rollback happens here: the
// encoder's accounting may be torn mid-patch, but the full freeze's
// EncodeFrozen resets the encoder (table, refcounts and journal) wholesale
// before reusing it, and a failed full freeze replaces the encoder
// entirely. The arena writes of the aborted patch are appends past every
// published tree's length, so concurrent readers never see them.
//
//act:requires mu
func (sh *shard) publishIncrementalGuarded(prev *shardSnapshot, roots []cellid.CellID) (s *shardSnapshot) {
	defer func() {
		if r := recover(); r != nil {
			sh.publishPanics++
			s = nil
		}
	}()
	return sh.publishIncremental(prev, roots)
}

// publishFullGuarded runs the inline full freeze under a panic guard,
// converting a recovered panic into an error for the caller to surface.
// Nothing published is touched before the guarded section completes: the
// snapshot is assembled from fresh buffers and only stored by publish()
// after a nil error.
//
//act:requires mu
//act:seam
func (sh *shard) publishFullGuarded() (s *shardSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			sh.publishPanics++
			s, err = nil, fmt.Errorf("actjoin: publish failed: %v", r)
		}
	}()
	fault.MustHit(fault.FullFreeze)
	// The snapshot takes ownership of the frozen cells (via the rope),
	// so the full path allocates a fresh, exactly-sized buffer; only the
	// patched path amortizes freeze allocations (dirty-sized buffers,
	// clean runs spliced by reference). EncodeFrozen, not EncodeAll: the
	// freeze's reference lists go straight into the new snapshot, and
	// EncodeAll would re-sort them in place — harmless today only because
	// they are not published yet, but a write through frozen state all the
	// same.
	cells := sh.sc.Cells()
	kvs := sh.enc.EncodeFrozen(cells)
	return &shardSnapshot{
		polys:          sh.polys,
		cells:          ropeFromCells(cells),
		tree:           act.Build(kvs, sh.opt.delta),
		table:          sh.enc.Table().Freeze(),
		opt:            sh.opt,
		precisionLevel: sh.precisionLevel,
	}, nil
}

// recoverFailedPublish rewinds the writer after a publish that produced no
// snapshot on any path. The published snapshot was never replaced, so
// readers saw nothing; the writer-side covering is reset to match it using
// the dirty roots captured before the attempt (the marks themselves were
// already consumed by TakeDirty). The encoder's table may be torn mid-encode, so it is
// replaced, and fullNext routes the next publish through the full freeze,
// which rebuilds consistent encoder state from scratch.
//
//act:requires mu
func (sh *shard) recoverFailedPublish(prev *shardSnapshot, roots []cellid.CellID, all bool) {
	sh.enc = cellindex.NewEncoder()
	sh.fullNext = true
	if prev == nil {
		return // first publish: the constructor surfaces the error, the index is never handed out
	}
	sh.resetToSnapshot(prev, roots, all)
}

// publishIncremental serves one publish without a full rebuild, choosing
// among patching prev, starting a background compaction, and landing an
// in-flight one. It returns nil only when every incremental avenue is
// exhausted and the caller must rebuild inline.
//
//act:requires mu
func (sh *shard) publishIncremental(prev *shardSnapshot, roots []cellid.CellID) *shardSnapshot {
	if len(roots) == 0 {
		// Nothing structural changed (e.g. a transaction that only touched
		// tombstones, or a no-op Train): reuse the frozen state wholesale,
		// publishing only the new polygon slice.
		return sh.patchSnapshot(prev, sh.enc, nil, 0)
	}
	c := sh.compacting
	arenaCap, tableCap := arenaMaxGarbageFraction, tableMaxGarbageFraction
	if c != nil {
		// A compaction is already rebuilding: keep patching past the soft
		// thresholds, bounded by the hard caps. (Rope fragmentation needs no
		// hard cap of its own — the splice tolerates high run counts and
		// maxCellRuns bounds it with an inline flatten as the last resort.)
		arenaCap, tableCap = arenaHardGarbageFraction, tableHardGarbageFraction
	}
	if prev.tree.GarbageRatio() > arenaCap || sh.enc.GarbageRatio() > tableCap ||
		(c == nil && !sh.bgCompactionOffLocked() && len(prev.cells.runs) > ropeCompactRuns) {
		switch {
		case c != nil && c.replayAll:
			// The in-flight compaction is already poisoned: waiting for its
			// build would buy nothing (reconcile must fail). Abandon it and
			// rebuild inline.
			return nil
		case c != nil:
			// Hard cap: patching may not outrun the compactor any further.
			// Its build is already under way and needs no lock, so waiting
			// for it and landing it here is bounded by the build's remaining
			// time — never worse than the inline rebuild it replaces. (The
			// wait holds mu, which is why the compactor's failure path is
			// lock-free: done closes on every outcome, including quarantine,
			// and a nil result below falls through to the inline rebuild.)
			<-c.done
			return sh.reconcileLocked(c)
		case sh.bgCompactionOffLocked():
			return nil // compact inline via the full rebuild
		default:
			// Soft threshold: publish this mutation as an ordinary patch and
			// compact from the resulting snapshot in the background.
			s := sh.patchSnapshot(prev, sh.enc, roots, publishMaxDirtyFraction)
			if s == nil {
				return nil
			}
			sh.startCompactionLocked(s)
			return s
		}
	}
	s := sh.patchSnapshot(prev, sh.enc, roots, publishMaxDirtyFraction)
	if s == nil && c != nil && !c.replayAll {
		// The frozen layout (or the dirty budget) refused the patch. With a
		// (non-poisoned) compaction in flight the fallback is deferred to it
		// instead of rebuilding inline: wait for the build and reconcile —
		// the fresh base often absorbs what the stale layout could not. The
		// aborted patch's encoder staging was rolled back by patchSnapshot,
		// so the live table's accounting stays exact however long the
		// fallback takes to land.
		<-c.done
		return sh.reconcileLocked(c)
	}
	return s
}

// bgCompactionOffLocked reports whether background compaction is
// unavailable — switched off by the inlineCompaction hook, quarantined after
// repeated failures, or the shard is closed. Everywhere it is true threshold
// crossings compact inline.
//
//act:requires mu
func (sh *shard) bgCompactionOffLocked() bool {
	return sh.inlineCompaction || sh.closed || sh.quarantined.Load() != nil
}

// patchSnapshot assembles a snapshot of the current writer state by patching
// base with the dirty regions under roots, re-encoding through enc (the
// encoder that produced base's entries: the live encoder when base is the
// previous snapshot, the fresh one when base is a compaction result being
// reconciled). maxDirtyFraction budgets the patch against base's size. It
// returns nil when the patch cannot (or should not) be applied — the
// encoder's staged work is rolled back exactly, so any fallback may be
// deferred indefinitely without leaking table garbage.
//
//act:requires mu
//act:freezer
//act:seam
func (sh *shard) patchSnapshot(base *shardSnapshot, enc *cellindex.Encoder, roots []cellid.CellID, maxDirtyFraction float64) *shardSnapshot {
	if len(roots) == 0 {
		return &shardSnapshot{
			polys:          sh.polys,
			cells:          base.cells,
			tree:           base.tree,
			table:          base.table,
			opt:            sh.opt,
			precisionLevel: sh.precisionLevel,
		}
	}
	// Bail before any splice or encoder work when the regions' footprint
	// alone disqualifies a patch — bulk mutations should pay for one full
	// rebuild, not for a discarded patch on top of it. (The emitted side is
	// only known after the splice; the check below re-tests it.)
	maxDirty := int(maxDirtyFraction * float64(base.cells.Len()))
	if len(roots) > mergeRootsMin {
		// mergePatchRoots counts every region it emits, so its estimate
		// doubles as the budget pre-check.
		var preDirtyOld int
		roots, preDirtyOld = mergePatchRoots(base.cells, roots, maxDirty)
		if preDirtyOld > maxDirty {
			return nil
		}
	} else {
		preDirtyOld := 0
		for _, r := range roots {
			preDirtyOld += base.cells.countRange(r.RangeMin(), r.RangeMax())
			if preDirtyOld > maxDirty {
				return nil
			}
		}
	}

	// Splice the new cell rope: clean runs come over from the base snapshot
	// as subslices (reference lists shared — both sides are immutable),
	// dirty regions are re-emitted from the writer tree into one fresh
	// buffer. In the same pass the encoder releases every replaced entry
	// (the base tree maps any leaf of a cell back to its entry) and
	// re-encodes the regions' new cells, journaled between Begin and
	// Commit/Rollback so an abort restores the accounting exactly.
	enc.Begin()
	abort := func() *shardSnapshot {
		enc.Rollback()
		return nil
	}
	newCells := &cellRope{}
	cur := ropeCursor{rope: base.cells}
	dirtyBuf := make([]supercover.Cell, 0, 256)
	kvbuf := sh.kvScratch[:0]
	regions := make([]act.PatchRegion, len(roots))
	dirtyOld, dirtyNew := 0, 0
	for ri, r := range roots {
		if fault.Hit(fault.RopeSplice) != nil {
			return abort() // injected splice failure: ordinary patch abort
		}
		lo, hi := r.RangeMin(), r.RangeMax()
		if last := cur.copyBefore(lo, newCells); last != nil && last.ID.RangeMax() >= lo {
			// A clean cell straddles the region boundary — the dirty-tracking
			// invariant should make this impossible; rebuild to be safe.
			return abort()
		}
		dirtyOld += cur.skipThrough(hi, func(c supercover.Cell) {
			enc.Release(base.tree.Find(c.ID.RangeMin()))
		})
		start := len(dirtyBuf)
		var ok bool
		dirtyBuf, ok = sh.sc.AppendRegion(dirtyBuf, r)
		if !ok {
			return abort()
		}
		// Not capacity-capped: adjacent regions emit contiguously into
		// dirtyBuf and appendRun merges their rope runs. The buffer is owned
		// by the snapshot from here on (fresh per publish, never recycled).
		region := dirtyBuf[start:len(dirtyBuf)]
		newCells.appendRun(region)
		dirtyNew += len(region)
		kvStart := len(kvbuf)
		kvbuf = enc.AppendCells(kvbuf, region)
		regions[ri] = act.PatchRegion{Root: r, KVs: kvbuf[kvStart:len(kvbuf):len(kvbuf)]}
	}
	cur.copyRest(newCells)
	sh.kvScratch = kvbuf[:0]

	dirty := dirtyOld
	if dirtyNew > dirty {
		dirty = dirtyNew
	}
	if dirty > maxDirty {
		return abort() // the emitted side grew too large for a patch to pay off
	}
	if sh.failPatches > 0 {
		sh.failPatches-- // test hook: force an abort after staging
		return abort()
	}

	tree, ok := base.tree.Patch(regions, newCells.Len())
	if !ok {
		return abort()
	}
	enc.Commit()
	// Splice fragmentation: with the background compactor on, crossing
	// ropeCompactRuns starts a compaction (whose result is a single run)
	// and the inline flatten is only the distant last resort; with it off
	// (by hook, quarantine or Close), flatten at the old pre-compactor
	// bound so the degraded shard really behaves like the inline reference.
	flattenAt := maxCellRuns
	if sh.bgCompactionOffLocked() {
		flattenAt = ropeCompactRuns
	}
	if len(newCells.runs) > flattenAt {
		newCells = newCells.flatten()
	}
	return &shardSnapshot{
		polys:          sh.polys,
		cells:          newCells,
		tree:           tree,
		table:          enc.Table().Freeze(),
		opt:            sh.opt,
		precisionLevel: sh.precisionLevel,
	}
}

// mergeRootsMin is the dirty-root count below which a patch keeps the roots
// as-is: merging pays off when a mutation shatters into hundreds of tiny
// regions, not for the handful a small edit produces.
const mergeRootsMin = 32

// mergePatchRoots greedily absorbs runs of spatially adjacent dirty roots
// into their common ancestor, as long as the clean cells the coarser region
// re-emits stay a small multiple of the dirty ones. A single Add at a fine
// precision shatters into hundreds of tiny regions (one per covering cell);
// patching them individually fragments the cell rope by ~2 runs each and
// pays per-region patch overhead, while their common ancestors cover the
// same dirt in a handful of regions. Re-emitting a clean cell is the
// identity (same bytes, same encoder record via dedup), so merging changes
// patch cost, never results. Roots arrive sorted and disjoint (CoalesceRoots
// order) and leave the same way; emitted is the total cell count of the
// returned regions (the caller's budget pre-check, already computed here).
func mergePatchRoots(base *cellRope, roots []cellid.CellID, maxDirty int) (merged []cellid.CellID, emitted int) {
	count := func(c cellid.CellID) int { return base.countRange(c.RangeMin(), c.RangeMax()) }
	out := make([]cellid.CellID, 0, len(roots))
	var lastMax cellid.CellID // range end of the last emitted group
	total := 0                // emitted cells across closed groups
	cur := roots[0]
	curCount := count(cur)
	dirty := curCount
	for _, r := range roots[1:] {
		if cur.Contains(r) {
			continue
		}
		rc := count(r)
		if lca, ok := cellid.CommonAncestor(cur, r); ok {
			// The level-0 guard keeps a merged region from swallowing a
			// whole face (which the frozen trie layout would refuse); the
			// lastMax guard keeps the coarser ancestor from reaching back
			// over the previously emitted group (regions must stay
			// disjoint); the remaining guards bound the re-emitted clean
			// cells per group, per merged region, and across the whole patch
			// — merging must never turn a patchable publish into a
			// budget-exceeded rebuild.
			if lc := count(lca); lca.Level() > 0 && lca.RangeMin() > lastMax &&
				lc <= 4*(dirty+rc)+64 && lc <= maxDirty/8 && total+lc <= maxDirty/2 {
				cur, curCount, dirty = lca, lc, dirty+rc
				continue
			}
		}
		out = append(out, cur)
		total += curCount
		lastMax = cur.RangeMax()
		cur, curCount, dirty = r, rc, rc
	}
	return append(out, cur), total + curCount
}

// mutablePolys returns sh.polys ready for in-place mutation, copying it
// first when a published snapshot still aliases it. extraCap reserves
// append room for the copy.
//
//act:requires mu
func (sh *shard) mutablePolys(extraCap int) []*geom.Polygon {
	if sh.polysShared {
		polys := make([]*geom.Polygon, len(sh.polys), len(sh.polys)+extraCap)
		copy(polys, sh.polys)
		sh.polys = polys
		sh.polysShared = false
	}
	return sh.polys
}

// resetToSnapshot rewinds the writer-side state to the snapshot s, given
// the dirty roots describing how the covering diverged from it (the caller
// has already consumed the dirty marks with TakeDirty). The undo is scoped
// by the same dirty tracking that drives incremental publishes: only the
// staged subtree roots are detached and re-filled from the snapshot's
// frozen cells, so a failed publish costs O(mutation) instead of
// re-inserting every frozen cell through conflict resolution. Bulk
// mutations (or a region the splice cannot express) fall back to the full
// rebuild.
//
//act:requires mu
func (sh *shard) resetToSnapshot(s *shardSnapshot, roots []cellid.CellID, all bool) {
	if all || !sh.restoreRegions(s, roots) {
		// Re-inserting the frozen cells rebuilds every piece of writer-side
		// state, including the per-polygon cell directory.
		sc := supercover.New()
		for _, run := range s.cells.runs {
			for _, c := range run {
				sc.Insert(c.ID, c.Refs)
			}
		}
		sc.TakeDirty() // the rebuild is the published state; nothing is dirty
		sh.sc = sc
	}
	sh.polys = s.polys
	sh.polysShared = true
}

// rewindTo force-rewinds the shard to a previously
// published snapshot, un-publishing whatever landed since: the writer-side
// state is rebuilt from s's frozen cells and s itself is re-stored as the
// current snapshot. It exists for the cross-shard rollback path — when a
// multi-shard commit fails partway, the shards that already published their
// part must take it back so the composed view never exposes a partial
// batch. (The rolled-back snapshots stay valid for readers that pinned
// them; the composed reader never completes a pin inside the commit's
// generation window, so it never observes the partial state.)
//
// Unlike a failed publish, the writer here is *ahead* of s — its dirty marks were
// consumed by the successful publish — so the region-scoped undo cannot
// express the rewind and the covering is rebuilt wholesale. The cost is
// O(shard), acceptable for a rare failure path. Any in-flight compaction is
// abandoned (its base may descend from the un-published snapshot) and the
// encoder is replaced: the next publish takes the full-freeze path, which
// rebuilds consistent encoder state from scratch.
//
//act:publisher
func (sh *shard) rewindTo(s *shardSnapshot) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.abandonCompactionLocked()
	sh.enc = cellindex.NewEncoder()
	sh.fullNext = true
	sh.sc.TakeDirty() // drop stale marks; the reset below rebuilds from scratch
	sh.resetToSnapshot(s, nil, true)
	sh.cur.Store(s)
}

// restoreRegions resets every dirty subtree from the snapshot's frozen
// cells. On any failure the covering may be partially reset — still safe,
// because the caller then rebuilds it from scratch.
//
//act:requires mu
func (sh *shard) restoreRegions(s *shardSnapshot, roots []cellid.CellID) bool {
	var scratch []supercover.Cell
	for _, r := range roots {
		scratch = s.cells.appendRange(scratch[:0], r.RangeMin(), r.RangeMax())
		if !sh.sc.ResetRegion(r, scratch) {
			sh.sc.TakeDirty()
			return false
		}
	}
	// Drop the marks the resets' inserts just made: the writer now matches
	// the published snapshot exactly.
	sh.sc.TakeDirty()
	return true
}

// Shard-side staging: the Index (index.go) decomposes every mutation into
// per-shard op lists — coverings pre-computed and pre-routed to the owning
// shard — and each shard stages its list and publishes once, under its own
// mutex. The ops carry global polygon ids (assigned by the Index's
// registry) rather than deriving them from the local polygon slice, which
// is why staging here pads the slice with tombstones up to the id: a shard
// only grows past an id when a later mutation forces the length, and a nil
// slot is indistinguishable from a removed polygon — exactly the semantics
// merged reads want.

// shardOpKind discriminates shardOp.
type shardOpKind uint8

const (
	shardOpAdd shardOpKind = iota
	shardOpRemove
	shardOpTrain
)

// shardOp is one routed mutation for one shard.
type shardOp struct {
	kind shardOpKind

	// add / remove
	id PolygonID
	// add
	gp          *geom.Polygon
	covering    []cellid.CellID // covering cells routed to this shard
	interior    []cellid.CellID // interior cells routed to this shard
	refineLevel int
	// train
	points   []cellid.CellID // training points routed to this shard
	maxCells int             // per-shard budget (0 = unlimited), set at commit
	skip     bool            // train only: global budget already exhausted
	trainRes *supercover.TrainResult
}

// applyShardOps stages a routed op batch on this shard and publishes once.
// It returns the snapshot that was current before the batch, which the
// multi-shard commit keeps for cross-shard rollback (rewindTo). On a
// publish failure the shard itself is already rolled back
// (recoverFailedPublish) and its published snapshot unchanged — only the
// *other* shards of the batch need rewinding.
func (sh *shard) applyShardOps(ops []shardOp) (prev *shardSnapshot, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return nil, ErrClosed
	}
	prev = sh.cur.Load()
	for i := range ops {
		sh.stageShardOp(&ops[i])
	}
	return prev, sh.publish()
}

// stageShardOp stages one routed op into the writer-side state, with the
// id, coverings and budget supplied by the router. An add inserts its
// covering and interior cells through the usual conflict resolution and —
// when the index has a precision bound — refines the regions of its
// covering cells, so queries keep their exactness and precision guarantees;
// a remove tombstones the id (ids stay stable) after RemovePolygon edits
// the cells the writer's per-polygon directory lists; a train pass splits
// cells that would require a PIP test (the paper's Section 3.3.1).
//
//act:requires mu
func (sh *shard) stageShardOp(op *shardOp) {
	switch op.kind {
	case shardOpAdd:
		extra := int(op.id) + 1 - len(sh.polys)
		if extra < 0 {
			extra = 0
		}
		polys := sh.mutablePolys(extra)
		for len(polys) <= int(op.id) {
			polys = append(polys, nil)
		}
		polys[op.id] = op.gp
		sh.polys = polys
		for _, c := range op.covering {
			sh.sc.Insert(c, []refs.Ref{refs.MakeRef(op.id, false)})
		}
		for _, c := range op.interior {
			sh.sc.Insert(c, []refs.Ref{refs.MakeRef(op.id, true)})
		}
		if op.refineLevel > 0 && len(op.covering) > 0 {
			sh.sc.RefineCells(sh.polys, op.covering, op.refineLevel)
		}
	case shardOpRemove:
		// Validation happened in the Index's registry; a shard that never
		// grew past the id (or already holds a tombstone) has nothing to do.
		if int(op.id) < len(sh.polys) && sh.polys[op.id] != nil {
			if sh.walkRemoval {
				sh.sc.RemovePolygonWalk(op.id)
			} else {
				sh.sc.RemovePolygon(op.id)
			}
			sh.mutablePolys(0)[op.id] = nil
		}
	case shardOpTrain:
		var res supercover.TrainResult
		if op.skip {
			res = supercover.TrainResult{BudgetReached: true}
		} else {
			res = sh.sc.Train(sh.polys, op.points, op.maxCells)
		}
		if op.trainRes != nil {
			*op.trainRes = res
		}
	}
}

// writerNumCells reports the writer-side covering size under the mutex;
// Train uses it to convert the global cell budget into per-shard
// remainders as the commit walks the shards.
func (sh *shard) writerNumCells() int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sc.NumCells()
}

// health reports the shard's own degradation state; see Health.
func (sh *shard) health() Health {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed {
		return Health{State: Closed, Cause: ErrClosed}
	}
	if q := sh.quarantined.Load(); q != nil {
		return Health{State: Degraded, Cause: q.cause}
	}
	return Health{State: Healthy}
}

// beginClose marks the shard closed and cancels any in-flight compaction
// without draining the compactor goroutine. Index.Close marks every shard
// closed under its commit lock first and drains the goroutines after
// releasing it, so a slow compactor on one shard never extends the window
// in which another shard still accepts mutations.
func (sh *shard) beginClose() {
	sh.mu.Lock()
	if !sh.closed {
		sh.closed = true
		sh.abandonCompactionLocked()
	}
	sh.mu.Unlock()
}

// footprint returns the number of writer-side cells referencing the polygon.
func (sh *shard) footprint(id PolygonID) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sc.Footprint(id)
}
