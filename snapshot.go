package actjoin

import (
	"runtime"
	"time"

	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/join"
)

// Snapshot is an immutable view of the index: one published snapshot per
// shard — each the frozen Adaptive Cell Trie, shared lookup table, polygon
// set and precision configuration of its range — plus the router that maps
// probes to them. It carries every read operation of the library.
//
// Concurrency contract: a Snapshot never changes after it is returned. All
// its methods are safe for unlimited concurrent use, take no locks, and
// never block on writers. A query sequence against one Snapshot — including
// a long batch join — observes a single consistent polygon set even while
// the owning Index publishes successors; call Index.Current again whenever
// a fresher view is wanted.
//
// Consistency: the view is generation-consistent. Current never returns a
// composition gathered while a multi-shard commit (Apply, Train) was in
// flight, so a batch staged through one Tx is observed either on every
// shard or on none — the view is never torn. Independent single-shard
// mutations publish atomically per shard and carry no cross-shard ordering
// promise, exactly as independent mutations on two separate indexes would
// not.
type Snapshot struct {
	shards []*shardSnapshot //act:frozen
	probe  []join.Shard     //act:frozen — the shards as the batch pipeline probes them
	router shardRouter      //act:frozen
	gen    uint64           // commit generation (even) the composition was pinned at
}

// ShardedSnapshot is an alias of Snapshot, the name the composed view had
// while the sharded engine shipped beside a separate unsharded one. It
// keeps code written against that name compiling — the benchmark adapter
// among it; new code names Snapshot.
type ShardedSnapshot = Snapshot

// seqlockSpins bounds Current's optimistic retries before it serializes
// behind the committers on the commit lock.
const seqlockSpins = 64

// Current returns the most recently published snapshot, safe to call from
// any goroutine at any rate. Hold it for as long as one consistent view is
// needed, and call Current again whenever a fresher one is wanted. Between
// publishes every call returns the same pointer and allocates nothing; a
// publish on any shard makes the next call return a new one.
//
// The view is gathered while no multi-shard commit is in flight. The common
// path is lock-free — read the commit generation, check or gather the
// shards' atomic snapshot pointers, and retry if the generation moved (a
// seqlock) — and under sustained multi-shard commit pressure it falls back
// to sharing the commit lock, which commits leave with an even generation.
//
//act:refresh the seqlock re-reads gen and the shard pointers each attempt by design
func (ix *Index) Current() *Snapshot {
	var snaps []*shardSnapshot
	for tries := 0; tries < seqlockSpins; tries++ {
		g := ix.gen.Load()
		if g&1 != 0 {
			runtime.Gosched() // a multi-shard commit is fanning out
			continue
		}
		v := ix.view.Load()
		if v != nil && v.composes(ix.shards) && ix.gen.Load() == g {
			return v
		}
		if snaps == nil {
			snaps = make([]*shardSnapshot, len(ix.shards))
		}
		for i, sh := range ix.shards {
			snaps[i] = sh.Current()
		}
		if ix.gen.Load() == g {
			return ix.install(v, newSnapshot(snaps, ix.router, g))
		}
	}
	// Contended: serialize behind the committers instead of spinning on.
	v := ix.view.Load()
	if snaps == nil {
		snaps = make([]*shardSnapshot, len(ix.shards))
	}
	ix.wmu.RLock()
	for i, sh := range ix.shards {
		snaps[i] = sh.Current()
	}
	g := ix.gen.Load()
	ix.wmu.RUnlock()
	return ix.install(v, newSnapshot(snaps, ix.router, g))
}

// install caches s as the view Current hands out, replacing old. When a
// concurrent Current installed an equal composition first, that one is
// returned instead, so callers between publishes share one pointer.
func (ix *Index) install(old, s *Snapshot) *Snapshot {
	if ix.view.CompareAndSwap(old, s) {
		return s
	}
	if w := ix.view.Load(); w != nil && w.sameShards(s.shards) {
		return w
	}
	return s
}

func newSnapshot(snaps []*shardSnapshot, router shardRouter, gen uint64) *Snapshot {
	probe := make([]join.Shard, len(snaps))
	for i, sh := range snaps {
		probe[i] = sh.probeShard()
	}
	return &Snapshot{shards: snaps, probe: probe, router: router, gen: gen}
}

// composes reports whether s is composed of the shards' currently
// published snapshots.
func (s *Snapshot) composes(shards []*shard) bool {
	for i, sh := range shards {
		if sh.Current() != s.shards[i] {
			return false
		}
	}
	return true
}

// sameShards reports whether s is composed of exactly the given shard
// snapshots.
func (s *Snapshot) sameShards(snaps []*shardSnapshot) bool {
	for i, sh := range snaps {
		if s.shards[i] != sh {
			return false
		}
	}
	return true
}

// QueryOptions is the one options struct shared by the bulk queries
// (CoversBatch and JoinCount). The zero value is a sensible default:
// approximate mode, input order, all CPUs.
type QueryOptions struct {
	// Exact refines candidate hits with PIP tests; results then match
	// Covers. When false, results match CoversApprox.
	Exact bool
	// Sorted probes the points in cell-id order internally, so runs of
	// nearby points share one trie walk. Results are always reported in
	// input order.
	Sorted bool
	// Threads is the number of workers of every batch stage (conversion,
	// sort, probe); 0 uses all CPUs, 1 runs single-threaded. It is not
	// divided across shards: every worker probes whichever shards its part
	// of the batch touches.
	Threads int
}

func (o QueryOptions) internal() join.BatchOptions {
	mode := join.Approximate
	if o.Exact {
		mode = join.Exact
	}
	return join.BatchOptions{Mode: mode, Sorted: o.Sorted, Threads: o.Threads}
}

// NumPolygons returns the number of polygon id slots in this view (live
// polygons plus tombstones), the maximum over the shards: a shard's slice
// only grows past an id when it owns cells of it, so the longest slice has
// seen every committed id.
func (s *Snapshot) NumPolygons() int {
	n := 0
	for _, sh := range s.shards {
		if len(sh.polys) > n {
			n = len(sh.polys)
		}
	}
	return n
}

// Removed reports whether the id belonged to a polygon that had been
// removed when this view was pinned (no shard holds it live).
func (s *Snapshot) Removed(id PolygonID) bool {
	if int(id) >= s.NumPolygons() {
		return false
	}
	for _, sh := range s.shards {
		if int(id) < len(sh.polys) && sh.polys[id] != nil {
			return false
		}
	}
	return true
}

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (s *Snapshot) Precision() float64 { return s.shards[0].opt.precisionMeters }

// Covers returns the ids of all polygons covering p, exactly: candidate
// cells are refined with PIP tests (the paper's accurate join). Covering
// cells are disjoint and shard ranges contiguous, so the probe's leaf cell
// has exactly one owning shard; the query is a route plus one single-shard
// probe.
func (s *Snapshot) Covers(p Point) []PolygonID { return s.query(p, true) }

// CoversApprox returns polygon ids without any PIP test. With a precision
// bound of d meters, every reported polygon is within d of p; without one,
// results may include polygons whose boundary cells contain p.
func (s *Snapshot) CoversApprox(p Point) []PolygonID { return s.query(p, false) }

func (s *Snapshot) query(p Point, exact bool) []PolygonID {
	gp := geom.Point{X: p.Lon, Y: p.Lat}
	leaf := cellid.FromPoint(gp)
	return s.shards[s.router.shardOfLeaf(leaf)].queryLeaf(gp, leaf, exact)
}

// CoversBatch answers many point queries in one call: out[i] holds the ids
// of the polygons covering points[i] (nil when none), identical to calling
// Covers (with opt.Exact) or CoversApprox per point, but through the batch
// probe pipeline — one pipeline converts and optionally sorts the whole
// batch, routes each run of probes to the shard owning it, and shares one
// trie walk per run; all opt.Threads workers serve every shard.
func (s *Snapshot) CoversBatch(points []Point, opt QueryOptions) [][]PolygonID {
	out, _ := join.CollectPoints(s.probe, s.router.bounds, s.NumPolygons(), geomPoints(points), opt.internal())
	return out
}

// JoinCount counts points per polygon through the batch probe pipeline —
// the paper's evaluation workload: Counts[pid] is the number of points
// covered by polygon pid, honoring QueryOptions (exactness, sorted probing,
// threads), and identical at every shard count. PIPTests and CacheHits
// depend on where the shard bounds cut runs, so their values (not the
// Counts) vary with the shard count.
func (s *Snapshot) JoinCount(points []Point, opt QueryOptions) JoinResult {
	return toJoinResult(join.CountPoints(s.probe, s.router.bounds, s.NumPolygons(), geomPoints(points), opt.internal()))
}

// JoinResult summarizes a bulk join.
type JoinResult struct {
	// Counts[pid] is the number of points covered by polygon pid.
	Counts []int64
	// PIPTests is the number of geometric refinements performed (0 in
	// approximate mode).
	PIPTests int64
	// STHPercent is the share of points answered without any candidate hit
	// (the paper's "solely true hits" metric).
	STHPercent float64
	// CacheHits is the number of probes answered without a trie walk of
	// their own: every point of a run after the first shares the run's
	// walk.
	CacheHits int64
	// Duration is the wall time of the whole call: point conversion,
	// sorting, probing and merging the per-worker counts.
	Duration time.Duration
	// ThroughputMpts is points per second in millions.
	ThroughputMpts float64
}

// Stats describes a published snapshot.
type Stats struct {
	NumPolygons int
	NumCells    int // super covering cells
	// NumTrieNodes counts live trie nodes: nodes a probe can reach. On
	// snapshots produced by incremental publishes the shared arena also
	// holds nodes orphaned by patching — reported in OrphanTrieNodes and
	// included in TrieSizeBytes — which a compaction (background by
	// default, or the inline full rebuild) leaves behind with the old
	// arena: post-compaction snapshots report zero orphans again, while
	// earlier snapshots keep the arena they were built over.
	NumTrieNodes    int
	OrphanTrieNodes int
	TrieSizeBytes   int // node arena, including orphaned nodes
	TableSizeBytes  int // shared lookup table
	Granularity     int // quadtree levels per radix level (δ)
	PrecisionLevel  int // refinement level, 0 when exact-only
}

// Stats returns structural statistics of the composed view: sizes are
// summed across shards, NumPolygons is the composed id-slot count, and the
// configuration fields are shared by every shard.
func (s *Snapshot) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		ss := sh.stats()
		st.NumCells += ss.NumCells
		st.NumTrieNodes += ss.NumTrieNodes
		st.OrphanTrieNodes += ss.OrphanTrieNodes
		st.TrieSizeBytes += ss.TrieSizeBytes
		st.TableSizeBytes += ss.TableSizeBytes
	}
	st.NumPolygons = s.NumPolygons()
	st.Granularity = s.shards[0].opt.delta
	st.PrecisionLevel = s.shards[0].precisionLevel
	return st
}
