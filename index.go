package actjoin

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"actjoin/internal/cellid"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// Index is a point-polygon join index: the writer handle that owns the
// mutable build-side state and publishes the immutable Snapshots that
// serve every query.
//
// The covering is partitioned into contiguous cell-id ranges, each owned by
// an independent shard with its own supercover tree, encoder, snapshot
// pointer, writer mutex and background compactor, so shards mutate,
// publish, compact, degrade and quarantine independently; the Index routes
// mutations and probes to the owning shards and composes their snapshots
// into one consistent view. NewIndex builds one shard — the paper's single
// Adaptive Cell Trie over one super covering — and NewShardedIndex several.
//
// The partitioning is the space-oriented one of Tsitsigkos et al.
// ("Two-layer Space-oriented Partitioning"): split once along the cell-id
// (Hilbert) order, then run the per-partition work with no coordination.
// Super-covering cells are disjoint, so every probe point has exactly one
// owning shard: the batch pipeline routes each run of probes to it (see
// internal/join), and training radix-splits its stream into per-shard
// sub-streams (join.PartitionByShard). A covering cell that would span a
// shard boundary is decomposed into its children until each piece lands in
// one shard — query-equivalent to inserting the parent, since a containment
// test against the parent and against the child holding the probe's leaf
// answer identically.
//
// Concurrency contract: every method is safe for concurrent use. Mutations
// rebuild the frozen structures off to the side and publish with atomic
// pointer swaps — they never block queries, and queries (Current and the
// Snapshot it returns) take no locks and never block them. Internally
// there are three lock classes, always taken in this order:
//
//	regMu (shardreg) > wmu (shardw) > shard.mu (mu)
//
// regMu guards the polygon-id registry: the id space is global, so
// assignment and removal claims serialize here (and Apply holds it for the
// whole transaction, keeping staged ids stable). wmu is the commit lock:
// single-shard mutations hold it shared — they touch one shard's mutex and
// publish atomically, so any number may run concurrently — while
// multi-shard commits (Apply, Train) hold it exclusively and bracket their
// fan-out with a generation bump so composed readers can detect (and wait
// out) a commit in flight. No path ever holds two shards' mutexes at once,
// and no shard method calls back into the Index, so the order is acyclic
// by construction.
type Index struct {
	noCopy noCopy

	// shards and router are immutable after construction; shards' own
	// state is guarded per shard by each shard's mutex.
	shards []*shard
	router shardRouter

	// gen is the cross-shard commit generation (a seqlock): odd while a
	// multi-shard commit is fanning out under wmu, even otherwise. Current
	// retries its shard-snapshot gather until it reads the same even value
	// on both sides, so a composed snapshot never spans a torn commit.
	gen atomic.Uint64 //act:seqlock shardw

	// view is the composed snapshot Current returned last. Current hands it
	// out again while every shard still publishes the snapshot it was
	// composed from, so repeated calls between publishes return the same
	// pointer without allocating.
	view atomic.Pointer[Snapshot] //act:atomic

	// wmu is the commit lock; see the struct comment for the sharing rule.
	wmu sync.RWMutex //act:lock shardw

	// regMu guards the global polygon-id registry. regOwners[id] is the
	// bitmask of shards holding cells of the polygon (64 shards max), 0 for
	// removed or never-committed ids; closed marks a Close()d index.
	regMu     sync.Mutex //act:lock shardreg
	regOwners []uint64   //act:guarded regMu
	closed    bool       //act:guarded regMu

	opt            options // immutable after construction
	precisionLevel int     // immutable after construction
}

// ShardedIndex is an alias of Index, the name the engine had while it
// shipped beside a separate unsharded one. It keeps code written against
// that name compiling — the benchmark adapter among it; new code names
// Index.
type ShardedIndex = Index

// MaxShards is the largest shard count NewShardedIndex accepts: owner sets
// are tracked as 64-bit masks, and the scaling a shard buys decays long
// before that.
const MaxShards = 64

// shardRouter maps cell ids to shards. bounds are the sorted, strictly
// increasing leaf-aligned split points chosen at build time: shard i owns
// the leaf ids in [bounds[i-1], bounds[i]) with virtual bounds at the ends
// of the id space, so len(bounds)+1 shards partition the space. The router
// is immutable; every reader and writer shares it.
type shardRouter struct {
	bounds []cellid.CellID
}

// numShards returns the number of ranges the router splits the id space
// into.
func (r shardRouter) numShards() int { return len(r.bounds) + 1 }

// shardOfLeaf returns the shard owning a leaf cell id.
func (r shardRouter) shardOfLeaf(leaf cellid.CellID) int {
	return sort.Search(len(r.bounds), func(i int) bool { return r.bounds[i] > leaf })
}

// route buckets covering cells by owning shard, decomposing any cell that
// spans a shard boundary into its children until each piece is owned by
// one shard. Decomposition recurses at most to the leaf level, and a leaf
// (RangeMin == RangeMax) can never span. Pieces are emitted in child order,
// so per-shard insertion order — and therefore the shard's covering — is
// deterministic.
func (r shardRouter) route(cells []cellid.CellID) [][]cellid.CellID {
	out := make([][]cellid.CellID, r.numShards())
	for _, c := range cells {
		r.emit(c, out)
	}
	return out
}

func (r shardRouter) emit(c cellid.CellID, out [][]cellid.CellID) {
	si := r.shardOfLeaf(c.RangeMin())
	if si == r.shardOfLeaf(c.RangeMax()) {
		out[si] = append(out[si], c)
		return
	}
	for _, ch := range c.Children() {
		r.emit(ch, out)
	}
}

// buildShardRouter picks the split points from the initial polygon set:
// quantiles of the covering cells' leaf positions, snapped two levels above
// the coarsest covering cell so most cells land inside one shard instead of
// straddling a split. Snapping (and empty ranges) may merge adjacent
// quantiles — the effective shard count is then lower than requested, never
// higher.
func buildShardRouter(covs, ints [][]cellid.CellID, shards int) shardRouter {
	if shards <= 1 {
		return shardRouter{}
	}
	var leafs []cellid.CellID
	minLevel := cellid.MaxLevel
	collect := func(lists [][]cellid.CellID) {
		for _, cs := range lists {
			for _, c := range cs {
				leafs = append(leafs, c.RangeMin())
				if l := c.Level(); l < minLevel {
					minLevel = l
				}
			}
		}
	}
	collect(covs)
	collect(ints)
	if len(leafs) == 0 {
		return shardRouter{}
	}
	cellid.SortCellIDs(leafs)
	snapLevel := minLevel - 2
	if snapLevel < 1 {
		snapLevel = 1
	}
	var bounds []cellid.CellID
	for k := 1; k < shards; k++ {
		b := leafs[k*len(leafs)/shards].Parent(snapLevel).RangeMin()
		if n := len(bounds); (n == 0 || b > bounds[n-1]) && b > leafs[0] {
			bounds = append(bounds, b)
		}
	}
	return shardRouter{bounds: bounds}
}

// NewIndex builds a one-shard index over the polygons and publishes its
// first snapshot. Polygon ids are slice positions. The build computes
// per-polygon coverings, merges them into the super covering and freezes
// the Adaptive Cell Trie. It is NewShardedIndex(polygons, 1, opts...).
func NewIndex(polygons []Polygon, opts ...Option) (*Index, error) {
	return NewShardedIndex(polygons, 1, opts...)
}

// NewShardedIndex builds an index over the polygons partitioned into up to
// the given number of shards, and publishes every shard's first snapshot.
// Polygon ids are slice positions. The partition bounds are chosen from the
// initial polygon set and fixed for the index's lifetime; skew in the
// initial covering (or split-point snapping) may merge ranges, so
// NumShards reports the effective count, which can be lower than requested.
//
// Shards trade the single-writer bottleneck for per-shard writers:
// mutations touching different shards commit concurrently, and batch
// probes fan out across the shards' frozen structures. Every shard count
// answers every query identically.
//
//act:exclusive
func NewShardedIndex(polygons []Polygon, shards int, opts ...Option) (*Index, error) {
	if shards < 1 || shards > MaxShards {
		return nil, fmt.Errorf("actjoin: shard count must be in [1, %d], got %d", MaxShards, shards)
	}
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
	bound := geom.EmptyRect()
	for i, p := range polygons {
		gp, err := toGeom(p)
		if err != nil {
			return nil, fmt.Errorf("actjoin: polygon %d: %w", i, err)
		}
		internal[i] = gp
		bound = bound.Union(gp.Bound())
	}
	covs, ints := coverAll(internal, o)
	router := buildShardRouter(covs, ints, shards)
	ns := router.numShards()

	// Route every polygon's cells to their owning shards and record the
	// owner masks for the registry.
	rcovs := make([][][]cellid.CellID, len(internal))
	rints := make([][][]cellid.CellID, len(internal))
	masks := make([]uint64, len(internal))
	for i := range internal {
		rcovs[i] = router.route(covs[i])
		rints[i] = router.route(ints[i])
		for si := 0; si < ns; si++ {
			if len(rcovs[i][si]) > 0 || len(rints[i][si]) > 0 {
				masks[i] |= 1 << uint(si)
			}
		}
		if masks[i] == 0 {
			// Degenerate covering (should not happen for a valid polygon):
			// host the polygon in the shard owning its bound center so the
			// id stays removable and serializable.
			si := router.shardOfLeaf(cellid.FromPoint(internal[i].Bound().Center()))
			masks[i] = 1 << uint(si)
		}
	}

	precisionLevel := 0
	if o.precisionMeters > 0 {
		precisionLevel = cellid.LevelForMaxDiagonalMeters(o.precisionMeters, bound.Center().Y)
	}

	shs := make([]*shard, ns)
	for si := 0; si < ns; si++ {
		sc := supercover.New()
		// Replicate supercover.Build's merge order — every covering in
		// polygon order, then every interior — so each shard's covering is
		// exactly the restriction of the one-shard covering to its range,
		// and every shard count serializes byte-identically.
		for i := range internal {
			for _, c := range rcovs[i][si] {
				sc.Insert(c, []refs.Ref{refs.MakeRef(PolygonID(i), false)})
			}
		}
		for i := range internal {
			for _, c := range rints[i][si] {
				sc.Insert(c, []refs.Ref{refs.MakeRef(PolygonID(i), true)})
			}
		}
		// The shard's polygon slice is nil-masked: only owners are set, so
		// removal routes by mask and the composed view merges slices by
		// first non-nil slot. Refinement only dereferences polygons its
		// cells reference, which are owners by construction.
		polys := make([]*geom.Polygon, len(internal))
		for i := range internal {
			if masks[i]&(1<<uint(si)) != 0 {
				polys[i] = internal[i]
			}
		}
		if precisionLevel > 0 {
			sc.RefineToPrecision(polys, precisionLevel)
		}
		shs[si] = &shard{polys: polys, sc: sc, opt: o, precisionLevel: precisionLevel}
	}
	return newIndex(shs, router, o, precisionLevel, masks)
}

// newIndex publishes every shard's first snapshot and wraps the shards into
// an Index whose registry starts from the given owner masks.
//
//act:exclusive
func newIndex(shs []*shard, router shardRouter, o options, precisionLevel int, owners []uint64) (*Index, error) {
	for _, sh := range shs {
		if err := sh.publish(); err != nil {
			return nil, err
		}
	}
	return &Index{
		shards:         shs,
		router:         router,
		opt:            o,
		precisionLevel: precisionLevel,
		regOwners:      owners,
	}, nil
}

// coverAll computes the per-polygon coverings in parallel under the index
// budgets — the same inputs supercover.Build computes, kept separate here
// so they can be routed to the shards before merging.
func coverAll(polys []*geom.Polygon, o options) (covs, ints [][]cellid.CellID) {
	covs = make([][]cellid.CellID, len(polys))
	ints = make([][]cellid.CellID, len(polys))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(polys) {
		workers = len(polys)
	}
	if workers <= 1 {
		for i, gp := range polys {
			covs[i], ints[i] = coverPolygon(gp, o)
		}
		return covs, ints
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//act:norecover pure-compute covering of constructor-owned polygons; a panic is a broken invariant with no state to contain
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(polys) {
					return
				}
				covs[i], ints[i] = coverPolygon(polys[i], o)
			}
		}()
	}
	wg.Wait()
	return covs, ints
}

// NumShards returns the effective shard count (possibly lower than
// requested; see NewShardedIndex).
func (ix *Index) NumShards() int { return len(ix.shards) }

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (ix *Index) Precision() float64 { return ix.opt.precisionMeters }

// ShardOf returns the index (0 ≤ i < NumShards) of the shard whose key range
// holds p — the failure domain a probe of p is served by and the slot its
// state is reported under in Health().Shards. The routing is a property of
// the immutable split, so the answer never changes over the index's lifetime.
func (ix *Index) ShardOf(p Point) int {
	return ix.router.shardOfLeaf(cellid.FromPoint(geom.Point{X: p.Lon, Y: p.Lat}))
}

// Add indexes one more polygon at runtime, publishes, and returns its id —
// the runtime update the paper sketches in Section 3.1.2. The covering is
// computed once, routed to the owning shards, and each owner stages and
// publishes its part; when the index has a precision bound, refinement is
// scoped to the new covering's cells, so queries keep their exactness and
// precision guarantees. A polygon contained in one shard's range — the
// common case for city-scale polygons under a well-balanced split — commits
// under the shared side of the commit lock and contends only with writers
// of the same shard.
//
// On a failure the add is rolled back on every shard that had committed it,
// the published snapshots are unchanged and the id is void; Add on a closed
// index returns ErrClosed.
func (ix *Index) Add(p Polygon) (PolygonID, error) {
	gp, err := toGeom(p)
	if err != nil {
		return 0, fmt.Errorf("actjoin: add: %w", err)
	}
	covering, interior := coverPolygon(gp, ix.opt)
	id, err := ix.reserveID()
	if err != nil {
		return 0, err
	}
	plan, mask := ix.planAdd(id, gp, covering, interior)
	if err := ix.commitPlan(plan); err != nil {
		ix.unreserveID(id)
		return 0, err
	}
	ix.setOwners(id, mask)
	return id, nil
}

// planAdd routes one add's coverings into a per-shard op plan and returns
// the owner mask.
func (ix *Index) planAdd(id PolygonID, gp *geom.Polygon, covering, interior []cellid.CellID) (plan [][]shardOp, mask uint64) {
	rcov := ix.router.route(covering)
	rint := ix.router.route(interior)
	refineLevel := addRefineLevel(gp, ix.opt, ix.precisionLevel)
	plan = make([][]shardOp, len(ix.shards))
	for si := range plan {
		if len(rcov[si]) == 0 && len(rint[si]) == 0 {
			continue
		}
		plan[si] = []shardOp{{
			kind: shardOpAdd, id: id, gp: gp,
			covering: rcov[si], interior: rint[si], refineLevel: refineLevel,
		}}
		mask |= 1 << uint(si)
	}
	if mask == 0 {
		// Degenerate covering; see the same case in NewShardedIndex.
		si := ix.router.shardOfLeaf(cellid.FromPoint(gp.Bound().Center()))
		plan[si] = []shardOp{{kind: shardOpAdd, id: id, gp: gp}}
		mask = 1 << uint(si)
	}
	return plan, mask
}

// Remove deletes a polygon from every shard holding its cells and publishes
// their new snapshots. Its id is never reused; queries on later snapshots
// never report it again, and Counts slices from joins keep their length
// (the removed id's slot stays zero). Unknown ids fail, removed ones fail
// with ErrRemoved, a closed index returns ErrClosed, and a failed commit
// rolls the removal back everywhere (including the registry claim).
//
// Cost: O(polygon footprint), not O(index) — each shard's per-polygon cell
// directory records exactly which covering cells reference the polygon, so
// both the removal and the incremental publish that follows touch only
// those cells (see FootprintCells).
func (ix *Index) Remove(id PolygonID) error {
	mask, err := ix.claimRemove(id)
	if err != nil {
		return err
	}
	plan := make([][]shardOp, len(ix.shards))
	for si := range plan {
		if mask&(1<<uint(si)) != 0 {
			plan[si] = []shardOp{{kind: shardOpRemove, id: id}}
		}
	}
	if err := ix.commitPlan(plan); err != nil {
		ix.setOwners(id, mask) // the shards rolled back; restore the claim
		return err
	}
	return nil
}

// Train adapts the index to an expected point distribution (the paper's
// Section 3.3.1): every training point hitting a cell that would require a
// PIP test splits that cell one level, until maxCells (0 = unlimited) is
// reached, then the index publishes. The training stream is radix-split to
// the owning shards, and each shard trains on its sub-stream. The cell
// budget is global — as the commit walks the shards it converts maxCells
// into the remainder the current shard may still spend, so the total never
// exceeds the budget; which cells get the splits depends on the shard
// count when the budget binds, since shards spend it in shard order rather
// than in global stream order. Training is advisory: on a closed index or
// a failed commit it returns zero TrainStats and every shard is rolled
// back.
func (ix *Index) Train(points []Point, maxCells int) TrainStats {
	if ix.isClosed() {
		return TrainStats{}
	}
	plan := make([][]shardOp, len(ix.shards))
	results := make([]supercover.TrainResult, len(ix.shards))
	for si, sub := range ix.routePoints(points) {
		if len(sub) > 0 {
			plan[si] = []shardOp{{kind: shardOpTrain, points: sub, maxCells: maxCells, trainRes: &results[si]}}
		}
	}
	if err := ix.commitMulti(plan); err != nil {
		return TrainStats{}
	}
	var st TrainStats
	for si := range results {
		st.PointsSeen += results[si].PointsSeen
		st.CellsSplit += results[si].Splits
		st.BudgetReached = st.BudgetReached || results[si].BudgetReached
	}
	st.NumCells = ix.totalWriterCells()
	return st
}

// routePoints converts training points to leaf cells and radix-splits them
// into per-shard sub-streams, each in input order.
func (ix *Index) routePoints(points []Point) [][]cellid.CellID {
	cells := make([]cellid.CellID, len(points))
	for i, p := range points {
		cells[i] = cellid.FromPoint(geom.Point{X: p.Lon, Y: p.Lat})
	}
	order, offsets := join.PartitionByShard(cells, ix.router.bounds)
	out := make([][]cellid.CellID, len(ix.shards))
	for si := range out {
		lo, hi := offsets[si], offsets[si+1]
		if lo == hi {
			continue
		}
		sub := make([]cellid.CellID, hi-lo)
		for k := range sub {
			sub[k] = cells[order[lo+k]]
		}
		out[si] = sub
	}
	return out
}

// TrainStats reports the outcome of Train.
type TrainStats struct {
	PointsSeen    int
	CellsSplit    int
	BudgetReached bool
	NumCells      int // cells after training
}

// Tx is the write transaction handed to Apply. Mutations staged through it
// are routed but not committed until fn returns; the whole batch then
// commits as one multi-shard commit, so readers observe either none of it
// or all of it. A Tx is only valid inside its Apply call and must not be
// used from other goroutines or retained; calling the Index's own mutation
// methods from within fn deadlocks on the registry lock Apply holds.
//
// Train stages a training pass but reports no TrainStats: staged training
// runs at commit time, interleaved with the batch's other ops, and its
// outcome is not known while fn is still staging.
type Tx struct {
	noCopy noCopy

	ix   *Index
	base int                  // registry length at Apply entry; ids from here are this tx's
	plan [][]shardOp          // per-shard staged ops, in staging order
	mask map[PolygonID]uint64 // staged owner-mask overlay (0 = staged remove)
}

func (tx *Tx) index() *Index {
	if tx.ix == nil {
		panic("actjoin: Tx used outside its Apply call")
	}
	return tx.ix
}

// Add stages one more polygon, returning the id it will have once the
// transaction commits.
//
//act:requires regMu
func (tx *Tx) Add(p Polygon) (PolygonID, error) {
	ix := tx.index()
	if len(ix.regOwners) >= MaxPolygons {
		return 0, fmt.Errorf("actjoin: polygon limit %d reached", MaxPolygons)
	}
	gp, err := toGeom(p)
	if err != nil {
		return 0, fmt.Errorf("actjoin: add: %w", err)
	}
	covering, interior := coverPolygon(gp, ix.opt)
	id := PolygonID(len(ix.regOwners))
	ix.regOwners = append(ix.regOwners, 0)
	plan, mask := ix.planAdd(id, gp, covering, interior)
	for si, ops := range plan {
		tx.plan[si] = append(tx.plan[si], ops...)
	}
	tx.mask[id] = mask
	return id, nil
}

// Remove stages the deletion of a polygon, validating against the staged
// state (a polygon added earlier in the same transaction can be removed).
//
//act:requires regMu
func (tx *Tx) Remove(id PolygonID) error {
	ix := tx.index()
	if int(id) >= len(ix.regOwners) {
		return fmt.Errorf("actjoin: unknown polygon id %d", id)
	}
	mask, staged := tx.mask[id]
	if !staged {
		mask = ix.regOwners[id]
	}
	if mask == 0 {
		return ErrRemoved
	}
	for si := range tx.plan {
		if mask&(1<<uint(si)) != 0 {
			tx.plan[si] = append(tx.plan[si], shardOp{kind: shardOpRemove, id: id})
		}
	}
	tx.mask[id] = 0
	return nil
}

// Train stages a training pass over the staged state; see the Tx
// comment for why it reports no stats.
func (tx *Tx) Train(points []Point, maxCells int) {
	for si, sub := range tx.index().routePoints(points) {
		if len(sub) > 0 {
			tx.plan[si] = append(tx.plan[si], shardOp{kind: shardOpTrain, points: sub, maxCells: maxCells})
		}
	}
}

// Apply runs a batch of mutations as one transaction: fn stages through
// the Tx, and the staged batch commits as one multi-shard commit — readers
// observe either none of it or all of it, and each shard publishes at most
// one new snapshot for the whole batch, so the cost of the publish is paid
// once instead of per mutation. If fn
// returns an error (or panics), nothing was committed anywhere and the ids
// handed out by tx.Add are void; if the commit itself fails partway, every
// shard that had already published its part is rewound, with the same
// outcome.
//
// fn must mutate only through tx — calling Add, Remove, Train or Apply on
// the Index itself from inside fn deadlocks on the registry lock
// Apply holds for the duration of the transaction. Queries (Current and any
// snapshot) remain safe from anywhere, including inside fn.
func (ix *Index) Apply(fn func(tx *Tx) error) error {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if ix.closed {
		return ErrClosed
	}
	tx := Tx{
		ix:   ix,
		base: len(ix.regOwners),
		plan: make([][]shardOp, len(ix.shards)),
		mask: make(map[PolygonID]uint64),
	}
	committed := false
	defer func() {
		// Runs on the error path AND when fn panics: invalidate the tx and
		// truncate the ids it reserved. Nothing was staged on any shard yet
		// — the plan only commits below — so the registry is the only state
		// to roll back. (Registered LIFO after the Unlock defer, so it runs
		// while regMu is still held.)
		tx.ix = nil
		if !committed {
			ix.regOwners = ix.regOwners[:tx.base]
		}
	}()
	if err := fn(&tx); err != nil {
		return err
	}
	if err := ix.commitMulti(tx.plan); err != nil {
		return err
	}
	committed = true
	for id, mask := range tx.mask {
		ix.regOwners[id] = mask
	}
	return nil
}

// commitPlan commits a routed op plan, taking the shared commit path when
// exactly one shard participates (a single atomic publish cannot be torn,
// so no generation bump or exclusive lock is needed) and the multi-shard
// path otherwise.
func (ix *Index) commitPlan(plan [][]shardOp) error {
	single := -1
	for si := range plan {
		if len(plan[si]) == 0 {
			continue
		}
		if single >= 0 {
			single = -2
			break
		}
		single = si
	}
	switch {
	case single == -1:
		return nil
	case single >= 0:
		return ix.commitSingle(single, plan[single])
	default:
		return ix.commitMulti(plan)
	}
}

// commitSingle commits one shard's ops under the shared side of the commit
// lock: concurrent single-shard commits on different shards proceed in
// parallel, serialized only against multi-shard commits.
func (ix *Index) commitSingle(si int, ops []shardOp) error {
	ix.wmu.RLock()
	defer ix.wmu.RUnlock()
	_, err := ix.shards[si].applyShardOps(ops)
	return err
}

// commitMulti commits an op plan that may span shards, under the exclusive
// side of the commit lock and inside an odd generation window: composed
// readers that raced the fan-out retry until the window closes, so they
// never observe some shards with the batch and others without. Shards
// commit in ascending order; when one fails — including an injected
// fault.ShardCommit — every shard that already published is rewound to its
// pre-commit snapshot before the error returns.
func (ix *Index) commitMulti(plan [][]shardOp) error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.gen.Add(1)
	defer ix.gen.Add(1)
	// Parallel slices: shards that committed, and the snapshot each must
	// be rewound to if a later shard fails (held only for the loop).
	var doneShards []int
	var donePrev []*shardSnapshot
	for si := range plan {
		ops := plan[si]
		if len(ops) == 0 {
			continue
		}
		ix.budgetTrainOps(si, ops)
		prev, err := ix.commitShard(si, ops)
		if err != nil {
			for i, di := range doneShards {
				ix.shards[di].rewindTo(donePrev[i])
			}
			return err
		}
		doneShards = append(doneShards, si)
		donePrev = append(donePrev, prev)
	}
	return nil
}

// commitShard runs one shard's slice of a multi-shard commit, containing a
// panic from the commit seam or the shard's publish machinery as an error: a
// panic escaping mid-fan-out would skip the rewind of the shards that already
// published and leak a torn commit, so it must surface as the same failure an
// error does.
//
//act:requires wmu
//act:seam
func (ix *Index) commitShard(si int, ops []shardOp) (prev *shardSnapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("actjoin: shard %d commit panicked: %v", si, r)
		}
	}()
	if err := fault.Hit(fault.ShardCommit); err != nil {
		return nil, err
	}
	return ix.shards[si].applyShardOps(ops)
}

// budgetTrainOps converts the global cell budget of each staged training op
// into the remainder shard si may spend: the global budget minus every
// other shard's current covering size. Earlier shards of the same commit
// have already spent their share (the commit lock keeps the counts stable),
// so the remainder shrinks as the fan-out progresses and the total stays
// within the global budget. An exhausted budget skips the shard's pass
// outright (Train treats 0 as unlimited, so 0 cannot express it).
//
//act:requires wmu
func (ix *Index) budgetTrainOps(si int, ops []shardOp) {
	for i := range ops {
		op := &ops[i]
		if op.kind != shardOpTrain || op.maxCells <= 0 {
			continue
		}
		others := 0
		for sj, sh := range ix.shards {
			if sj != si {
				others += sh.writerNumCells()
			}
		}
		if remaining := op.maxCells - others; remaining >= 1 {
			op.maxCells = remaining
		} else {
			op.skip = true
		}
	}
}

// reserveID assigns the next polygon id, leaving its owner mask empty until
// the add commits; a concurrent reader treats the empty mask as a removed
// id, which is exactly the not-yet-visible semantics an uncommitted add
// wants.
func (ix *Index) reserveID() (PolygonID, error) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	if len(ix.regOwners) >= MaxPolygons {
		return 0, fmt.Errorf("actjoin: polygon limit %d reached", MaxPolygons)
	}
	id := PolygonID(len(ix.regOwners))
	ix.regOwners = append(ix.regOwners, 0)
	return id, nil
}

// unreserveID rolls a reservation back after a failed add: the slot is
// reclaimed when still the newest, otherwise left void (mask 0) and never
// handed out again.
func (ix *Index) unreserveID(id PolygonID) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if int(id) == len(ix.regOwners)-1 {
		ix.regOwners = ix.regOwners[:id]
	}
}

// setOwners records a committed polygon's owner mask (or restores a claim
// after a failed remove).
func (ix *Index) setOwners(id PolygonID, mask uint64) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	ix.regOwners[id] = mask
}

// claimRemove validates a removal and claims it by clearing the owner mask;
// the caller restores the mask if the commit fails. Claiming up front makes
// concurrent removes of the same id race to exactly one winner.
func (ix *Index) claimRemove(id PolygonID) (uint64, error) {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	if ix.closed {
		return 0, ErrClosed
	}
	if int(id) >= len(ix.regOwners) {
		return 0, fmt.Errorf("actjoin: unknown polygon id %d", id)
	}
	mask := ix.regOwners[id]
	if mask == 0 {
		return 0, ErrRemoved
	}
	ix.regOwners[id] = 0
	return mask, nil
}

func (ix *Index) isClosed() bool {
	ix.regMu.Lock()
	defer ix.regMu.Unlock()
	return ix.closed
}

// totalWriterCells sums the shards' writer-side covering sizes under the
// shared commit lock (so no multi-shard commit is midway through spending a
// budget while the sum is taken).
func (ix *Index) totalWriterCells() int {
	ix.wmu.RLock()
	defer ix.wmu.RUnlock()
	total := 0
	for _, sh := range ix.shards {
		total += sh.writerNumCells()
	}
	return total
}

// PublishStats returns the shards' publish-path counters summed — the index
// serves one workload, so the aggregate is what an operator alerts on;
// per-shard degradation is reported by Health().Shards.
func (ix *Index) PublishStats() PublishStats {
	var st PublishStats
	for _, sh := range ix.shards {
		s := sh.publishStats()
		st.Patched += s.Patched
		st.Full += s.Full
		st.CompactionsStarted += s.CompactionsStarted
		st.CompactionsLanded += s.CompactionsLanded
		st.CompactionsFailed += s.CompactionsFailed
		st.ReconcileAborts += s.ReconcileAborts
		st.ReplayPoisoned += s.ReplayPoisoned
		st.PublishPanics += s.PublishPanics
	}
	return st
}

// FootprintCells returns the number of super-covering cells currently
// referencing the polygon in the writer-side state, summed over the shards
// — the cost driver of Remove and of the incremental publish that follows
// it. Removed (or never referenced) polygons report 0. It is a writer-side
// diagnostic, not a snapshot property.
func (ix *Index) FootprintCells(id PolygonID) int {
	n := 0
	for _, sh := range ix.shards {
		n += sh.footprint(id)
	}
	return n
}
