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

// ShardedIndex partitions the covering into contiguous cell-id ranges,
// each range owned by an independent shard. A shard is a complete Index —
// its own supercover tree, encoder, snapshot pointer, writer mutex and
// background compactor — so shards mutate, publish, compact, degrade and
// quarantine independently; the ShardedIndex is the thin layer that routes
// mutations and probes to the owning shards and composes their snapshots
// into one consistent view.
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
// Concurrency contract (three lock classes, always in this order):
//
//	regMu (shardreg) > wmu (shardw) > per-shard Index.mu (mu)
//
// regMu guards the polygon-id registry: the id space is global, so
// assignment and removal claims serialize here (and Apply holds it for the
// whole transaction, keeping staged ids stable). wmu is the commit lock:
// single-shard mutations hold it shared — they touch one shard's mutex and
// publish atomically, so any number may run concurrently — while
// multi-shard commits (Apply, Train) hold it exclusively and bracket their
// fan-out with a generation bump so composed readers can detect (and wait
// out) a commit in flight. No path ever holds two shards' mutexes at once,
// and no Index method calls back into the ShardedIndex, so the order is
// acyclic by construction.
type ShardedIndex struct {
	noCopy noCopy

	// shards and router are immutable after NewShardedIndex; shards' own
	// state is guarded per shard by each Index's mutex.
	shards []*Index
	router shardRouter

	// gen is the cross-shard commit generation (a seqlock): odd while a
	// multi-shard commit is fanning out under wmu, even otherwise. Current
	// retries its shard-snapshot gather until it reads the same even value
	// on both sides, so a composed snapshot never spans a torn commit.
	gen atomic.Uint64 //act:seqlock shardw

	// wmu is the commit lock; see the struct comment for the sharing rule.
	wmu sync.RWMutex //act:lock shardw

	// regMu guards the global polygon-id registry. regOwners[id] is the
	// bitmask of shards holding cells of the polygon (64 shards max), 0 for
	// removed or never-committed ids; closed marks a Close()d index.
	regMu     sync.Mutex //act:lock shardreg
	regOwners []uint64   //act:guarded regMu
	closed    bool       //act:guarded regMu

	opt            options // immutable after NewShardedIndex
	precisionLevel int     // immutable after NewShardedIndex
}

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

// NewShardedIndex builds an index over the polygons partitioned into up to
// the given number of shards, and publishes every shard's first snapshot.
// Polygon ids are slice positions, exactly as with NewIndex; the same
// Options apply (to every shard). The partition bounds are chosen from the
// initial polygon set and fixed for the index's lifetime; skew in the
// initial covering (or split-point snapping) may merge ranges, so
// NumShards reports the effective count, which can be lower than requested.
//
// A sharded index trades the single-writer bottleneck for per-shard
// writers: mutations touching different shards commit concurrently, and
// batch probes fan out across the shards' frozen structures. With one
// shard it behaves — and serializes — exactly like the Index NewIndex
// returns.
//
//act:exclusive
func NewShardedIndex(polygons []Polygon, shards int, opts ...Option) (*ShardedIndex, error) {
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

	shardIxs := make([]*Index, ns)
	for si := 0; si < ns; si++ {
		sc := supercover.New()
		sc.SetWalkRemoval(o.walkRemoval)
		// Replicate supercover.Build's merge order — every covering in
		// polygon order, then every interior — so each shard's covering is
		// exactly the restriction of the unsharded one to its range, and
		// the concatenated shards serialize byte-identically to an
		// unsharded index.
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
		shardIxs[si] = &Index{polys: polys, sc: sc, opt: o, precisionLevel: precisionLevel}
	}
	for _, ix := range shardIxs {
		if _, err := ix.publish(); err != nil {
			return nil, err
		}
	}
	return &ShardedIndex{
		shards:         shardIxs,
		router:         router,
		opt:            o,
		precisionLevel: precisionLevel,
		regOwners:      masks,
	}, nil
}

// coverAll computes the per-polygon coverings in parallel under the index
// budgets — the same inputs supercover.Build computes for the unsharded
// build, kept separate here so they can be routed before merging.
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
func (six *ShardedIndex) NumShards() int { return len(six.shards) }

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (six *ShardedIndex) Precision() float64 { return six.opt.precisionMeters }

// ShardOf returns the index (0 ≤ i < NumShards) of the shard whose key range
// holds p — the failure domain a probe of p is served by and the slot its
// state is reported under in Health().Shards. The routing is a property of
// the immutable split, so the answer never changes over the index's lifetime.
func (six *ShardedIndex) ShardOf(p Point) int {
	return six.router.shardOfLeaf(cellid.FromPoint(geom.Point{X: p.Lon, Y: p.Lat}))
}

// Add indexes one more polygon at runtime and returns its id, exactly like
// Index.Add: the covering is computed once, routed to the owning shards,
// and each owner stages and publishes its part. A polygon contained in one
// shard's range — the common case for city-scale polygons under a
// well-balanced split — commits under the shared side of the commit lock
// and contends only with writers of the same shard.
//
// On a failure the add is rolled back on every shard that had committed it
// and the id is void; Add on a closed index returns ErrClosed.
func (six *ShardedIndex) Add(p Polygon) (PolygonID, error) {
	gp, err := toGeom(p)
	if err != nil {
		return 0, fmt.Errorf("actjoin: add: %w", err)
	}
	covering, interior := coverPolygon(gp, six.opt)
	id, err := six.reserveID()
	if err != nil {
		return 0, err
	}
	plan, mask := six.planAdd(id, gp, covering, interior)
	if err := six.commitPlan(plan); err != nil {
		six.unreserveID(id)
		return 0, err
	}
	six.setOwners(id, mask)
	return id, nil
}

// planAdd routes one add's coverings into a per-shard op plan and returns
// the owner mask.
func (six *ShardedIndex) planAdd(id PolygonID, gp *geom.Polygon, covering, interior []cellid.CellID) (plan [][]shardOp, mask uint64) {
	rcov := six.router.route(covering)
	rint := six.router.route(interior)
	refineLevel := addRefineLevel(gp, six.opt, six.precisionLevel)
	plan = make([][]shardOp, len(six.shards))
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
		si := six.router.shardOfLeaf(cellid.FromPoint(gp.Bound().Center()))
		plan[si] = []shardOp{{kind: shardOpAdd, id: id, gp: gp}}
		mask = 1 << uint(si)
	}
	return plan, mask
}

// Remove deletes a polygon from every shard holding its cells and publishes
// their new snapshots. Semantics match Index.Remove: ids are never reused,
// unknown ids and double removes fail the same way, and a failed commit
// rolls the removal back everywhere (including the registry claim).
func (six *ShardedIndex) Remove(id PolygonID) error {
	mask, err := six.claimRemove(id)
	if err != nil {
		return err
	}
	plan := make([][]shardOp, len(six.shards))
	for si := range plan {
		if mask&(1<<uint(si)) != 0 {
			plan[si] = []shardOp{{kind: shardOpRemove, id: id}}
		}
	}
	if err := six.commitPlan(plan); err != nil {
		six.setOwners(id, mask) // the shards rolled back; restore the claim
		return err
	}
	return nil
}

// Train adapts the index to an expected point distribution, as Index.Train
// does: the training stream is radix-split to the owning shards, and each
// shard trains on its sub-stream. The cell budget is global — as the commit
// walks the shards it converts maxCells (0 = unlimited) into the remainder
// the current shard may still spend, so the total never exceeds the budget;
// which cells get the splits can differ from the unsharded index when the
// budget binds, since shards spend it in shard order rather than in global
// stream order. Training is advisory: on a closed index or a failed commit
// it returns zero TrainStats and every shard is rolled back.
func (six *ShardedIndex) Train(points []Point, maxCells int) TrainStats {
	if six.isClosed() {
		return TrainStats{}
	}
	cells := make([]cellid.CellID, len(points))
	for i, p := range points {
		cells[i] = cellid.FromPoint(geom.Point{X: p.Lon, Y: p.Lat})
	}
	order, offsets := join.PartitionByShard(cells, six.router.bounds)
	plan := make([][]shardOp, len(six.shards))
	results := make([]supercover.TrainResult, len(six.shards))
	for si := range plan {
		lo, hi := offsets[si], offsets[si+1]
		if lo == hi {
			continue
		}
		sub := make([]cellid.CellID, hi-lo)
		for k := range sub {
			sub[k] = cells[order[lo+k]]
		}
		plan[si] = []shardOp{{kind: shardOpTrain, points: sub, maxCells: maxCells, trainRes: &results[si]}}
	}
	if err := six.commitMulti(plan); err != nil {
		return TrainStats{}
	}
	var st TrainStats
	for si := range results {
		st.PointsSeen += results[si].PointsSeen
		st.CellsSplit += results[si].Splits
		st.BudgetReached = st.BudgetReached || results[si].BudgetReached
	}
	st.NumCells = six.totalWriterCells()
	return st
}

// ShardTx is the write transaction handed to ShardedIndex.Apply. Mutations
// staged through it are routed but not committed until fn returns; the
// whole batch then commits as one multi-shard commit, so composed readers
// observe either none of it or all of it. Like Tx, a ShardTx is only valid
// inside its Apply call; calling the ShardedIndex's own mutation methods
// from within fn deadlocks on the registry lock Apply holds.
//
// Train stages a training pass but reports no TrainStats: staged training
// runs at commit time, interleaved with the batch's other ops, and its
// outcome is not known while fn is still staging.
type ShardTx struct {
	noCopy noCopy

	six  *ShardedIndex
	base int                  // registry length at Apply entry; ids from here are this tx's
	plan [][]shardOp          // per-shard staged ops, in staging order
	mask map[PolygonID]uint64 // staged owner-mask overlay (0 = staged remove)
}

func (tx *ShardTx) sharded() *ShardedIndex {
	if tx.six == nil {
		panic("actjoin: ShardTx used outside its Apply call")
	}
	return tx.six
}

// Add stages one more polygon, returning the id it will have once the
// transaction commits.
//
//act:requires regMu
func (tx *ShardTx) Add(p Polygon) (PolygonID, error) {
	six := tx.sharded()
	if len(six.regOwners) >= MaxPolygons {
		return 0, fmt.Errorf("actjoin: polygon limit %d reached", MaxPolygons)
	}
	gp, err := toGeom(p)
	if err != nil {
		return 0, fmt.Errorf("actjoin: add: %w", err)
	}
	covering, interior := coverPolygon(gp, six.opt)
	id := PolygonID(len(six.regOwners))
	six.regOwners = append(six.regOwners, 0)
	plan, mask := six.planAdd(id, gp, covering, interior)
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
func (tx *ShardTx) Remove(id PolygonID) error {
	six := tx.sharded()
	if int(id) >= len(six.regOwners) {
		return fmt.Errorf("actjoin: unknown polygon id %d", id)
	}
	mask, staged := tx.mask[id]
	if !staged {
		mask = six.regOwners[id]
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

// Train stages a training pass over the staged state; see the ShardTx
// comment for why it reports no stats.
func (tx *ShardTx) Train(points []Point, maxCells int) {
	six := tx.sharded()
	cells := make([]cellid.CellID, len(points))
	for i, p := range points {
		cells[i] = cellid.FromPoint(geom.Point{X: p.Lon, Y: p.Lat})
	}
	order, offsets := join.PartitionByShard(cells, six.router.bounds)
	for si := range tx.plan {
		lo, hi := offsets[si], offsets[si+1]
		if lo == hi {
			continue
		}
		sub := make([]cellid.CellID, hi-lo)
		for k := range sub {
			sub[k] = cells[order[lo+k]]
		}
		tx.plan[si] = append(tx.plan[si], shardOp{kind: shardOpTrain, points: sub, maxCells: maxCells})
	}
}

// Apply runs a batch of mutations as one cross-shard transaction: fn stages
// through the ShardTx, and the staged batch commits as one multi-shard
// commit — composed readers observe either none of it or all of it, and
// each shard publishes at most one new snapshot for the whole batch. If fn
// returns an error (or panics), nothing was committed anywhere and the ids
// handed out by tx.Add are void; if the commit itself fails partway, every
// shard that had already published its part is rewound, with the same
// outcome.
//
// fn must mutate only through tx — calling Add, Remove, Train or Apply on
// the ShardedIndex itself from inside fn deadlocks on the registry lock
// Apply holds for the duration of the transaction. Queries (Current and any
// snapshot) remain safe from anywhere, including inside fn.
func (six *ShardedIndex) Apply(fn func(tx *ShardTx) error) error {
	six.regMu.Lock()
	defer six.regMu.Unlock()
	if six.closed {
		return ErrClosed
	}
	tx := ShardTx{
		six:  six,
		base: len(six.regOwners),
		plan: make([][]shardOp, len(six.shards)),
		mask: make(map[PolygonID]uint64),
	}
	committed := false
	defer func() {
		// Runs on the error path AND when fn panics: invalidate the tx and
		// truncate the ids it reserved. Nothing was staged on any shard yet
		// — the plan only commits below — so the registry is the only state
		// to roll back. (Registered LIFO after the Unlock defer, so it runs
		// while regMu is still held.)
		tx.six = nil
		if !committed {
			six.regOwners = six.regOwners[:tx.base]
		}
	}()
	if err := fn(&tx); err != nil {
		return err
	}
	if err := six.commitMulti(tx.plan); err != nil {
		return err
	}
	committed = true
	for id, mask := range tx.mask {
		six.regOwners[id] = mask
	}
	return nil
}

// commitPlan commits a routed op plan, taking the shared commit path when
// exactly one shard participates (a single atomic publish cannot be torn,
// so no generation bump or exclusive lock is needed) and the multi-shard
// path otherwise.
func (six *ShardedIndex) commitPlan(plan [][]shardOp) error {
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
		return six.commitSingle(single, plan[single])
	default:
		return six.commitMulti(plan)
	}
}

// commitSingle commits one shard's ops under the shared side of the commit
// lock: concurrent single-shard commits on different shards proceed in
// parallel, serialized only against multi-shard commits.
func (six *ShardedIndex) commitSingle(si int, ops []shardOp) error {
	six.wmu.RLock()
	defer six.wmu.RUnlock()
	_, err := six.shards[si].applyShardOps(ops)
	return err
}

// commitMulti commits an op plan that may span shards, under the exclusive
// side of the commit lock and inside an odd generation window: composed
// readers that raced the fan-out retry until the window closes, so they
// never observe some shards with the batch and others without. Shards
// commit in ascending order; when one fails — including an injected
// fault.ShardCommit — every shard that already published is rewound to its
// pre-commit snapshot before the error returns.
func (six *ShardedIndex) commitMulti(plan [][]shardOp) error {
	six.wmu.Lock()
	defer six.wmu.Unlock()
	six.gen.Add(1)
	defer six.gen.Add(1)
	// Parallel slices: shards that committed, and the snapshot each must
	// be rewound to if a later shard fails (held only for the loop).
	var doneShards []int
	var donePrev []*Snapshot
	for si := range plan {
		ops := plan[si]
		if len(ops) == 0 {
			continue
		}
		six.budgetTrainOps(si, ops)
		prev, err := six.commitShard(si, ops)
		if err != nil {
			for i, di := range doneShards {
				six.shards[di].rewindTo(donePrev[i])
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
func (six *ShardedIndex) commitShard(si int, ops []shardOp) (prev *Snapshot, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("actjoin: shard %d commit panicked: %v", si, r)
		}
	}()
	if err := fault.Hit(fault.ShardCommit); err != nil {
		return nil, err
	}
	return six.shards[si].applyShardOps(ops)
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
func (six *ShardedIndex) budgetTrainOps(si int, ops []shardOp) {
	for i := range ops {
		op := &ops[i]
		if op.kind != shardOpTrain || op.maxCells <= 0 {
			continue
		}
		others := 0
		for sj, sh := range six.shards {
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
func (six *ShardedIndex) reserveID() (PolygonID, error) {
	six.regMu.Lock()
	defer six.regMu.Unlock()
	if six.closed {
		return 0, ErrClosed
	}
	if len(six.regOwners) >= MaxPolygons {
		return 0, fmt.Errorf("actjoin: polygon limit %d reached", MaxPolygons)
	}
	id := PolygonID(len(six.regOwners))
	six.regOwners = append(six.regOwners, 0)
	return id, nil
}

// unreserveID rolls a reservation back after a failed add: the slot is
// reclaimed when still the newest, otherwise left void (mask 0), matching
// the unsharded behaviour that a failed Add's id is simply never handed out
// again.
func (six *ShardedIndex) unreserveID(id PolygonID) {
	six.regMu.Lock()
	defer six.regMu.Unlock()
	if int(id) == len(six.regOwners)-1 {
		six.regOwners = six.regOwners[:id]
	}
}

// setOwners records a committed polygon's owner mask (or restores a claim
// after a failed remove).
func (six *ShardedIndex) setOwners(id PolygonID, mask uint64) {
	six.regMu.Lock()
	defer six.regMu.Unlock()
	six.regOwners[id] = mask
}

// claimRemove validates a removal and claims it by clearing the owner mask;
// the caller restores the mask if the commit fails. Claiming up front makes
// concurrent removes of the same id race to exactly one winner, as with the
// unsharded index's mutex.
func (six *ShardedIndex) claimRemove(id PolygonID) (uint64, error) {
	six.regMu.Lock()
	defer six.regMu.Unlock()
	if six.closed {
		return 0, ErrClosed
	}
	if int(id) >= len(six.regOwners) {
		return 0, fmt.Errorf("actjoin: unknown polygon id %d", id)
	}
	mask := six.regOwners[id]
	if mask == 0 {
		return 0, ErrRemoved
	}
	six.regOwners[id] = 0
	return mask, nil
}

func (six *ShardedIndex) isClosed() bool {
	six.regMu.Lock()
	defer six.regMu.Unlock()
	return six.closed
}

// totalWriterCells sums the shards' writer-side covering sizes under the
// shared commit lock (so no multi-shard commit is midway through spending a
// budget while the sum is taken).
func (six *ShardedIndex) totalWriterCells() int {
	six.wmu.RLock()
	defer six.wmu.RUnlock()
	total := 0
	for _, sh := range six.shards {
		total += sh.writerNumCells()
	}
	return total
}

// ShardHealth reports a ShardedIndex's degradation state: the composed
// State/Cause plus every shard's own Health. Shards are independent failure
// domains — one shard's quarantined compactor degrades that shard alone
// (its publishes compact inline; every other shard keeps its background
// compactor) — so the composed state is Degraded when any shard is, with
// the first degraded shard's cause.
type ShardHealth struct {
	// State is the composed state: Closed after Close, else Degraded when
	// any shard is degraded, else Healthy.
	State HealthState
	// Cause is nil when Healthy, the first degraded shard's cause when
	// Degraded, and ErrClosed when Closed.
	Cause error
	// Shards holds each shard's own health, indexed by shard.
	Shards []Health
}

// Health reports the composed health and each shard's own; see ShardHealth.
func (six *ShardedIndex) Health() ShardHealth {
	h := ShardHealth{Shards: make([]Health, len(six.shards))}
	for i, sh := range six.shards {
		h.Shards[i] = sh.Health()
		if h.Shards[i].State == Degraded && h.Cause == nil {
			h.Cause = h.Shards[i].Cause
		}
	}
	switch {
	case six.isClosed():
		h.State, h.Cause = Closed, ErrClosed
	case h.Cause != nil:
		h.State = Degraded
	default:
		h.State = Healthy
	}
	return h
}

// PublishStats returns the shards' publish-path counters summed — the
// composed index serves one workload, so the aggregate is what an operator
// alerts on; per-shard attribution is available through Health's per-shard
// states and, for tests, the shards themselves.
func (six *ShardedIndex) PublishStats() PublishStats {
	var st PublishStats
	for _, sh := range six.shards {
		s := sh.PublishStats()
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

// Close shuts every shard down: in-flight compactions are cancelled and
// further mutations fail with ErrClosed before any compactor goroutine is
// waited on, so one shard's slow drain never extends another shard's write
// window. Queries against previously obtained snapshots (and Current)
// remain valid. Close is idempotent and implements io.Closer; the error is
// always nil.
func (six *ShardedIndex) Close() error {
	six.regMu.Lock()
	six.closed = true
	six.regMu.Unlock()
	six.wmu.Lock()
	for _, sh := range six.shards {
		sh.beginClose()
	}
	six.wmu.Unlock()
	for _, sh := range six.shards {
		sh.compactorWG.Wait()
	}
	return nil
}
