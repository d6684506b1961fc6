package actjoin

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/cover"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// Point is a geographic location in degrees.
type Point struct {
	Lon, Lat float64
}

// Ring is a closed polygon ring; the closing vertex must not be repeated.
type Ring []Point

// Polygon is an area with an exterior ring and optional holes.
type Polygon struct {
	Exterior Ring
	Holes    []Ring
}

// PolygonID identifies a polygon by its position in the slice passed to
// NewIndex.
type PolygonID = uint32

// MaxPolygons is the largest indexable polygon count (30-bit ids, as in the
// paper's tagged-entry encoding).
const MaxPolygons = refs.MaxPolygonID + 1

// options collect the build configuration.
type options struct {
	precisionMeters float64
	delta           int
	coveringCells   int
	interiorCells   int
	fullPublish     bool
	walkRemoval     bool
	noBgCompact     bool
}

// Option configures NewIndex.
type Option func(*options) error

// WithPrecision enables the approximate mode with the given distance bound
// in meters: every point reported for a polygon is inside it or within
// `meters` of it, and approximate queries never run PIP tests. The paper's
// headline configuration is 4 meters.
func WithPrecision(meters float64) Option {
	return func(o *options) error {
		if meters <= 0 || math.IsNaN(meters) || math.IsInf(meters, 0) {
			return fmt.Errorf("actjoin: invalid precision %v", meters)
		}
		o.precisionMeters = meters
		return nil
	}
}

// WithGranularity sets the trie granularity δ — quadtree levels per radix
// level. Valid values are 1, 2 and 4 (ACT1/ACT2/ACT4); the default is 4,
// the paper's fastest configuration.
func WithGranularity(delta int) Option {
	return func(o *options) error {
		if delta != 1 && delta != 2 && delta != 4 {
			return fmt.Errorf("actjoin: granularity must be 1, 2 or 4, got %d", delta)
		}
		o.delta = delta
		return nil
	}
}

// WithIncrementalPublish controls how mutations freeze their snapshot. When
// enabled (the default), a publish patches the previous snapshot: only the
// dirty subtrees are re-frozen, re-encoded and rebuilt in the trie arena, so
// publish latency is proportional to the mutation, not to the index; the
// writer falls back to a full rebuild automatically when the dirty footprint
// or the accumulated patch garbage crosses its thresholds. Disabling it
// forces the pre-incremental behaviour — a full freeze on every publish —
// and exists for benchmarking the two paths against each other and as an
// operational escape hatch. Query results are identical either way.
func WithIncrementalPublish(enabled bool) Option {
	return func(o *options) error {
		o.fullPublish = !enabled
		return nil
	}
}

// WithBackgroundCompaction controls how the garbage that incremental
// publishes accumulate gets compacted. When enabled (the default), crossing
// a garbage threshold kicks off a background goroutine that rebuilds the
// frozen structures from the current snapshot with no writer lock held,
// while the writer keeps patching (up to hard caps); the finished rebuild is
// reconciled with the publishes that happened meanwhile and swapped in under
// the writer mutex. Publish latency then stays bounded by the mutation even
// across compactions. Disabling it forces the pre-compactor behaviour — a
// stop-the-writer full rebuild at every threshold crossing (~hundreds of
// milliseconds at large coverings) — and exists for benchmarking, as the
// differential-test reference, and as an operational escape hatch. Published
// snapshots are byte-identical either way.
func WithBackgroundCompaction(enabled bool) Option {
	return func(o *options) error {
		o.noBgCompact = !enabled
		return nil
	}
}

// WithWalkRemoval controls how Remove locates a polygon's cells. When
// disabled (the default), removal descends only the cells recorded in the
// writer's per-polygon directory, making Remove — and the incremental
// publish that follows it — O(polygon footprint). Enabling it forces the
// pre-directory behaviour, a full walk of the super covering's quadtree on
// every Remove; it exists for benchmarking the two paths against each other
// and as an operational escape hatch. Results, published snapshots and dirty
// accounting are identical either way.
func WithWalkRemoval(enabled bool) Option {
	return func(o *options) error {
		o.walkRemoval = enabled
		return nil
	}
}

// WithCoveringBudget overrides the per-polygon approximation budgets (the
// paper's defaults are 128 covering cells and 256 interior cells).
func WithCoveringBudget(coveringCells, interiorCells int) Option {
	return func(o *options) error {
		if coveringCells < 4 || interiorCells < 0 {
			return fmt.Errorf("actjoin: invalid covering budget %d/%d", coveringCells, interiorCells)
		}
		o.coveringCells = coveringCells
		o.interiorCells = interiorCells
		return nil
	}
}

// Index is the writer handle of a point-polygon join index. It owns the
// mutable build-side state (the super covering) and publishes immutable
// Snapshots that serve all queries.
//
// Concurrency contract: every method of Index is safe for concurrent use.
// Mutations (Add, Remove, Train, Apply) serialize among themselves on an
// internal mutex, rebuild the frozen structures off to the side, and
// publish the result with a single atomic pointer swap — they never block
// queries, and queries never block them. The read path (Current and the
// Snapshot it returns, including the deprecated query forwarders on Index)
// takes no locks.
type Index struct {
	noCopy noCopy

	// mu serializes writers; it is never held on any query path.
	mu sync.Mutex //act:lock mu

	//act:published
	//act:atomic
	cur atomic.Pointer[Snapshot]

	// Writer-side state. polys is copy-on-write: published snapshots share
	// the slice, so the first mutation after a publish replaces it instead
	// of editing it in place (polysShared tracks whether the current slice
	// is aliased by a snapshot). staged records whether any mutation landed
	// since the last publish, so an aborted Apply only pays for a state
	// rebuild when there is something to discard.
	sc          *supercover.SuperCovering //act:guarded mu
	polys       []*geom.Polygon           //act:guarded mu
	polysShared bool                      //act:guarded mu
	staged      bool                      //act:guarded mu

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
	// closed marks a Close()d index: mutations fail with ErrClosed, no new
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

	// Test hooks (same-package tests only): holdCompaction, when non-nil,
	// parks every finished compaction until the channel is closed, so tests
	// can deterministically observe the pending-ready state; failPatches
	// forces the next n patch attempts to abort after staging, exercising
	// the encoder rollback path; compactRetryBase (0 = default) shortens
	// the compactor's retry backoff so failure tests run fast.
	holdCompaction   chan struct{} //act:guarded mu
	failPatches      int           //act:guarded mu
	compactRetryBase time.Duration //act:guarded mu

	opt            options // immutable after NewIndex
	precisionLevel int     // immutable after NewIndex
}

// noCopy triggers go vet's copylocks analyzer on by-value copies of the
// struct embedding it. It has no runtime effect.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// NewIndex builds an index over the polygons and publishes its first
// snapshot. Polygon ids are slice positions. The build computes per-polygon
// coverings, merges them into the super covering and freezes the Adaptive
// Cell Trie.
//
//act:exclusive
func NewIndex(polygons []Polygon, opts ...Option) (*Index, error) {
	o, err := buildOptions(opts)
	if err != nil {
		return nil, err
	}
	if len(polygons) == 0 {
		return nil, errors.New("actjoin: no polygons")
	}
	if len(polygons) > MaxPolygons {
		return nil, fmt.Errorf("actjoin: %d polygons exceed the %d limit", len(polygons), MaxPolygons)
	}

	internal := make([]*geom.Polygon, len(polygons))
	var bound geom.Rect = geom.EmptyRect()
	for i, p := range polygons {
		gp, err := toGeom(p)
		if err != nil {
			return nil, fmt.Errorf("actjoin: polygon %d: %w", i, err)
		}
		internal[i] = gp
		bound = bound.Union(gp.Bound())
	}

	sc := supercover.Build(internal, supercover.Options{
		Covering: cover.Options{MaxCells: o.coveringCells},
		Interior: cover.Options{MaxCells: o.interiorCells, MaxLevel: 20},
	})
	sc.SetWalkRemoval(o.walkRemoval)

	ix := &Index{polys: internal, sc: sc, opt: o}
	if o.precisionMeters > 0 {
		ix.precisionLevel = cellid.LevelForMaxDiagonalMeters(o.precisionMeters, bound.Center().Y)
		sc.RefineToPrecision(internal, ix.precisionLevel)
	}
	if _, err := ix.publish(); err != nil {
		return nil, err
	}
	return ix, nil
}

// buildOptions folds the option list over the package defaults (shared by
// NewIndex and NewShardedIndex).
func buildOptions(opts []Option) (options, error) {
	o := options{delta: act.Delta4, coveringCells: 128, interiorCells: 256}
	for _, fn := range opts {
		if err := fn(&o); err != nil {
			return options{}, err
		}
	}
	return o, nil
}

func toGeom(p Polygon) (*geom.Polygon, error) {
	rings := make([]geom.Ring, 0, 1+len(p.Holes))
	conv := func(r Ring) (geom.Ring, error) {
		out := make(geom.Ring, len(r))
		for i, v := range r {
			if math.IsNaN(v.Lon) || math.IsNaN(v.Lat) ||
				v.Lon < -180 || v.Lon > 180 || v.Lat < -90 || v.Lat > 90 {
				return nil, fmt.Errorf("vertex %d out of range: (%v, %v)", i, v.Lon, v.Lat)
			}
			out[i] = geom.Point{X: v.Lon, Y: v.Lat}
		}
		return out, nil
	}
	ext, err := conv(p.Exterior)
	if err != nil {
		return nil, err
	}
	rings = append(rings, ext)
	for _, h := range p.Holes {
		hr, err := conv(h)
		if err != nil {
			return nil, err
		}
		rings = append(rings, hr)
	}
	return geom.NewPolygon(rings...)
}

// Current returns the most recently published snapshot: a single atomic
// load, safe to call from any goroutine at any rate. The snapshot is
// immutable — hold it for as long as one consistent view is needed, and
// call Current again whenever a fresher one is wanted.
func (ix *Index) Current() *Snapshot { return ix.cur.Load() }

// Publish thresholds: a patch is only attempted while the mutation's dirty
// footprint stays a small fraction of the index and while the garbage that
// patching accumulates (orphaned trie nodes, tombstoned lookup-table
// records) stays below its compaction triggers. Crossing a garbage trigger
// starts a background compaction (the default) or falls back to an inline
// rebuild (WithBackgroundCompaction(false)); while a compaction is in
// flight the writer keeps patching up to the hard caps in compaction.go.
const (
	publishMaxDirtyFraction = 0.25 // dirty cells vs previous snapshot cells
	arenaMaxGarbageFraction = 0.25 // orphaned arena slots before compaction
	tableMaxGarbageFraction = 0.50 // tombstoned table words before compaction
)

// publish freezes the writer-side state into a new immutable snapshot and
// swaps it in; //act:requires states the calling contract (constructors
// owning a fresh, unshared Index are covered by //act:exclusive).
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
func (ix *Index) publish() (*Snapshot, error) {
	if ix.enc == nil {
		ix.enc = cellindex.NewEncoder()
	}
	prev := ix.cur.Load()
	roots, all := ix.sc.TakeDirty()
	if c := ix.compacting; c != nil {
		// Whatever this publish changes must be re-applied onto the fresh
		// base before the in-flight compaction may land.
		c.addReplay(roots, all)
	}
	var s *Snapshot
	if prev != nil && !all && !ix.opt.fullPublish && !ix.fullNext {
		s = ix.publishIncrementalGuarded(prev, roots)
	}
	if s == nil {
		ix.abandonCompactionLocked()
		var err error
		if s, err = ix.publishFullGuarded(); err != nil {
			ix.recoverFailedPublish(prev, roots, all)
			return nil, err
		}
		ix.full++
		ix.fullNext = false
	} else {
		ix.patched++
	}
	ix.polysShared = true // the snapshot aliases ix.polys from here on
	ix.staged = false
	ix.cur.Store(s)
	return s, nil
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
func (ix *Index) publishIncrementalGuarded(prev *Snapshot, roots []cellid.CellID) (s *Snapshot) {
	defer func() {
		if r := recover(); r != nil {
			ix.publishPanics++
			s = nil
		}
	}()
	return ix.publishIncremental(prev, roots)
}

// publishFullGuarded runs the inline full freeze under a panic guard,
// converting a recovered panic into an error for the caller to surface.
// Nothing published is touched before the guarded section completes: the
// snapshot is assembled from fresh buffers and only stored by publish()
// after a nil error.
//
//act:requires mu
//act:seam
func (ix *Index) publishFullGuarded() (s *Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			ix.publishPanics++
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
	cells := ix.sc.Cells()
	kvs := ix.enc.EncodeFrozen(cells)
	return &Snapshot{
		polys:          ix.polys,
		cells:          ropeFromCells(cells),
		tree:           act.Build(kvs, ix.opt.delta),
		table:          ix.enc.Table().Freeze(),
		opt:            ix.opt,
		precisionLevel: ix.precisionLevel,
	}, nil
}

// recoverFailedPublish rewinds the writer after a publish that produced no
// snapshot on any path. The published snapshot was never replaced, so
// readers saw nothing; the writer-side covering is reset to match it using
// the dirty roots captured before the attempt (the marks themselves were
// already consumed by TakeDirty, so restore() — which re-takes them — must
// not be used here). The encoder's table may be torn mid-encode, so it is
// replaced, and fullNext routes the next publish through the full freeze,
// which rebuilds consistent encoder state from scratch.
//
//act:requires mu
func (ix *Index) recoverFailedPublish(prev *Snapshot, roots []cellid.CellID, all bool) {
	ix.enc = cellindex.NewEncoder()
	ix.fullNext = true
	if prev == nil {
		return // first publish: the constructor surfaces the error, the index is never handed out
	}
	ix.resetToSnapshot(prev, roots, all)
}

// publishIncremental serves one publish without a full rebuild, choosing
// among patching prev, starting a background compaction, and landing an
// in-flight one. It returns nil only when every incremental avenue is
// exhausted and the caller must rebuild inline.
//
//act:requires mu
func (ix *Index) publishIncremental(prev *Snapshot, roots []cellid.CellID) *Snapshot {
	if len(roots) == 0 {
		// Nothing structural changed (e.g. a transaction that only touched
		// tombstones, or a no-op Train): reuse the frozen state wholesale,
		// publishing only the new polygon slice.
		return ix.patchSnapshot(prev, ix.enc, nil, 0)
	}
	c := ix.compacting
	arenaCap, tableCap := arenaMaxGarbageFraction, tableMaxGarbageFraction
	if c != nil {
		// A compaction is already rebuilding: keep patching past the soft
		// thresholds, bounded by the hard caps. (Rope fragmentation needs no
		// hard cap of its own — the splice tolerates high run counts and
		// maxCellRuns bounds it with an inline flatten as the last resort.)
		arenaCap, tableCap = arenaHardGarbageFraction, tableHardGarbageFraction
	}
	if prev.tree.GarbageRatio() > arenaCap || ix.enc.GarbageRatio() > tableCap ||
		(c == nil && !ix.bgCompactionOffLocked() && len(prev.cells.runs) > ropeCompactRuns) {
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
			return ix.reconcileLocked(c)
		case ix.bgCompactionOffLocked():
			return nil // compact inline via the full rebuild
		default:
			// Soft threshold: publish this mutation as an ordinary patch and
			// compact from the resulting snapshot in the background.
			s := ix.patchSnapshot(prev, ix.enc, roots, publishMaxDirtyFraction)
			if s == nil {
				return nil
			}
			ix.startCompactionLocked(s)
			return s
		}
	}
	s := ix.patchSnapshot(prev, ix.enc, roots, publishMaxDirtyFraction)
	if s == nil && c != nil && !c.replayAll {
		// The frozen layout (or the dirty budget) refused the patch. With a
		// (non-poisoned) compaction in flight the fallback is deferred to it
		// instead of rebuilding inline: wait for the build and reconcile —
		// the fresh base often absorbs what the stale layout could not. The
		// aborted patch's encoder staging was rolled back by patchSnapshot,
		// so the live table's accounting stays exact however long the
		// fallback takes to land.
		<-c.done
		return ix.reconcileLocked(c)
	}
	return s
}

// bgCompactionOffLocked reports whether background compaction is
// unavailable — disabled by option, quarantined after repeated failures, or
// the index is closed. Everywhere it is true the index behaves like
// WithBackgroundCompaction(false): threshold crossings compact inline.
//
//act:requires mu
func (ix *Index) bgCompactionOffLocked() bool {
	return ix.opt.noBgCompact || ix.closed || ix.quarantined.Load() != nil
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
func (ix *Index) patchSnapshot(base *Snapshot, enc *cellindex.Encoder, roots []cellid.CellID, maxDirtyFraction float64) *Snapshot {
	if len(roots) == 0 {
		return &Snapshot{
			polys:          ix.polys,
			cells:          base.cells,
			tree:           base.tree,
			table:          base.table,
			opt:            ix.opt,
			precisionLevel: ix.precisionLevel,
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
	abort := func() *Snapshot {
		enc.Rollback()
		return nil
	}
	newCells := &cellRope{}
	cur := ropeCursor{rope: base.cells}
	dirtyBuf := make([]supercover.Cell, 0, 256)
	kvbuf := ix.kvScratch[:0]
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
		dirtyBuf, ok = ix.sc.AppendRegion(dirtyBuf, r)
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
	ix.kvScratch = kvbuf[:0]

	dirty := dirtyOld
	if dirtyNew > dirty {
		dirty = dirtyNew
	}
	if dirty > maxDirty {
		return abort() // the emitted side grew too large for a patch to pay off
	}
	if ix.failPatches > 0 {
		ix.failPatches-- // test hook: force an abort after staging
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
	// (by option, quarantine or Close), flatten at the old pre-compactor
	// bound so the degraded index really behaves like the escape hatch.
	flattenAt := maxCellRuns
	if ix.bgCompactionOffLocked() {
		flattenAt = ropeCompactRuns
	}
	if len(newCells.runs) > flattenAt {
		newCells = newCells.flatten()
	}
	return &Snapshot{
		polys:          ix.polys,
		cells:          newCells,
		tree:           tree,
		table:          enc.Table().Freeze(),
		opt:            ix.opt,
		precisionLevel: ix.precisionLevel,
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

// mutablePolys returns ix.polys ready for in-place mutation, copying it
// first when a published snapshot still aliases it. extraCap reserves
// append room for the copy.
//
//act:requires mu
func (ix *Index) mutablePolys(extraCap int) []*geom.Polygon {
	if ix.polysShared {
		polys := make([]*geom.Polygon, len(ix.polys), len(ix.polys)+extraCap)
		copy(polys, ix.polys)
		ix.polys = polys
		ix.polysShared = false
	}
	return ix.polys
}

// restore rewinds the writer-side state to the currently published
// snapshot, discarding uncommitted mutations.
//
// The undo is scoped by the same dirty tracking that drives incremental
// publishes: only the staged subtree roots are detached and re-filled from
// the snapshot's frozen cells, so aborting a transaction costs O(mutation)
// instead of re-inserting every frozen cell through conflict resolution.
// Bulk mutations (or a region the splice cannot express) fall back to the
// full rebuild.
//
//act:requires mu
func (ix *Index) restore() {
	s := ix.cur.Load()
	roots, all := ix.sc.TakeDirty()
	ix.resetToSnapshot(s, roots, all)
}

// resetToSnapshot rewinds the writer-side state to the snapshot s, given
// the dirty roots describing how the covering diverged from it. The caller
// has already consumed the dirty marks (TakeDirty) — transaction aborts
// take them here in restore, failed publishes captured them before the
// attempt.
//
//act:requires mu
func (ix *Index) resetToSnapshot(s *Snapshot, roots []cellid.CellID, all bool) {
	if all || !ix.restoreRegions(s, roots) {
		// Re-inserting the frozen cells rebuilds every piece of writer-side
		// state, including the per-polygon cell directory.
		sc := supercover.New()
		sc.SetWalkRemoval(ix.opt.walkRemoval)
		for _, run := range s.cells.runs {
			for _, c := range run {
				sc.Insert(c.ID, c.Refs)
			}
		}
		sc.TakeDirty() // the rebuild is the published state; nothing is dirty
		ix.sc = sc
	}
	ix.polys = s.polys
	ix.polysShared = true
	ix.staged = false
}

// rewindTo force-rewinds one shard of a ShardedIndex to a previously
// published snapshot, un-publishing whatever landed since: the writer-side
// state is rebuilt from s's frozen cells and s itself is re-stored as the
// current snapshot. It exists for the cross-shard rollback path — when a
// multi-shard commit fails partway, the shards that already published their
// part must take it back so the composed view never exposes a partial
// batch. (The rolled-back snapshots stay valid for readers that pinned
// them; the composed reader never completes a pin inside the commit's
// generation window, so it never observes the partial state.)
//
// Unlike restore, the writer here is *ahead* of s — its dirty marks were
// consumed by the successful publish — so the region-scoped undo cannot
// express the rewind and the covering is rebuilt wholesale. The cost is
// O(shard), acceptable for a rare failure path. Any in-flight compaction is
// abandoned (its base may descend from the un-published snapshot) and the
// encoder is replaced: the next publish takes the full-freeze path, which
// rebuilds consistent encoder state from scratch.
//
//act:publisher
func (ix *Index) rewindTo(s *Snapshot) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.abandonCompactionLocked()
	ix.enc = cellindex.NewEncoder()
	ix.fullNext = true
	ix.sc.TakeDirty() // drop stale marks; the reset below rebuilds from scratch
	ix.resetToSnapshot(s, nil, true)
	ix.cur.Store(s)
}

// restoreRegions resets every dirty subtree from the snapshot's frozen
// cells. On any failure the covering may be partially reset — still safe,
// because the caller then rebuilds it from scratch.
//
//act:requires mu
func (ix *Index) restoreRegions(s *Snapshot, roots []cellid.CellID) bool {
	var scratch []supercover.Cell
	for _, r := range roots {
		scratch = s.cells.appendRange(scratch[:0], r.RangeMin(), r.RangeMax())
		if !ix.sc.ResetRegion(r, scratch) {
			ix.sc.TakeDirty()
			return false
		}
	}
	// Drop the marks the resets' inserts just made: the writer now matches
	// the published snapshot exactly.
	ix.sc.TakeDirty()
	return true
}

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (ix *Index) Precision() float64 { return ix.opt.precisionMeters }

// publishCounters reports how many publishes took the incremental patch
// path vs the full-rebuild path (tests and benchmarks assert the fast path
// actually engages).
func (ix *Index) publishCounters() (patched, full int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.patched, ix.full
}

// Covers returns the ids of all polygons covering p, exactly.
//
// Deprecated: use Current().Covers. This forwarder queries whatever
// snapshot happens to be published at call time; consecutive calls may see
// different snapshots when writers are active.
func (ix *Index) Covers(p Point) []PolygonID { return ix.Current().Covers(p) }

// CoversApprox returns polygon ids without any PIP test.
//
// Deprecated: use Current().CoversApprox.
func (ix *Index) CoversApprox(p Point) []PolygonID { return ix.Current().CoversApprox(p) }

// CoversBatch answers many point queries in one call.
//
// Deprecated: use Current().CoversBatch.
func (ix *Index) CoversBatch(points []Point, opt QueryOptions) [][]PolygonID {
	return ix.Current().CoversBatch(points, opt)
}

// JoinCount counts points per polygon through the batch probe pipeline.
//
// Deprecated: use Current().JoinCount.
func (ix *Index) JoinCount(points []Point, opt QueryOptions) JoinResult {
	return ix.Current().JoinCount(points, opt)
}

// Join counts points per polygon.
//
// Deprecated: use Current().JoinCount with QueryOptions{Exact, Threads}.
func (ix *Index) Join(points []Point, exact bool, threads int) JoinResult {
	return ix.Current().Join(points, exact, threads)
}

// Stats returns structural statistics of the published snapshot.
//
// Deprecated: use Current().Stats.
func (ix *Index) Stats() Stats { return ix.Current().Stats() }

// Removed reports whether the id was removed.
//
// Deprecated: use Current().Removed.
func (ix *Index) Removed(id PolygonID) bool { return ix.Current().Removed(id) }

// The batch queries read the caller's points in place: Point and
// geom.Point share one layout (two float64 coordinates, longitude first),
// so a []Point is viewed as a []geom.Point without a copy. These
// declarations stop the build if the layouts ever diverge.
var (
	_ [unsafe.Sizeof(Point{}) - unsafe.Sizeof(geom.Point{})]struct{}
	_ [unsafe.Sizeof(geom.Point{}) - unsafe.Sizeof(Point{})]struct{}
	_ [unsafe.Offsetof(Point{}.Lat) - unsafe.Offsetof(geom.Point{}.Y)]struct{}
	_ [unsafe.Offsetof(geom.Point{}.Y) - unsafe.Offsetof(Point{}.Lat)]struct{}
)

// geomPoints views points as the geometry layer's point type.
func geomPoints(points []Point) []geom.Point {
	return unsafe.Slice((*geom.Point)(unsafe.Pointer(unsafe.SliceData(points))), len(points))
}

func toJoinResult(res join.Result) JoinResult {
	return JoinResult{
		Counts:         res.Counts,
		PIPTests:       res.PIPTests,
		STHPercent:     res.STHPercent(),
		CacheHits:      res.CacheHits,
		Duration:       res.Duration,
		ThroughputMpts: res.ThroughputMpts(),
	}
}
