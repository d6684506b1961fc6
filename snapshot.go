package actjoin

import (
	"time"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/refs"
	"actjoin/internal/supercover"
)

// Snapshot is an immutable view of the index: the frozen Adaptive Cell
// Trie, the shared lookup table, the polygon set and the precision
// configuration, all frozen at one publish point. It carries every read
// operation of the library.
//
// Concurrency contract: a Snapshot never changes after it is published.
// All its methods are safe for unlimited concurrent use, take no locks, and
// never block on writers. A query sequence against one Snapshot — including
// a long batch join — observes a single consistent polygon set even while
// the owning Index publishes successors; call Index.Current again whenever
// a fresher view is wanted.
type Snapshot struct {
	polys []*geom.Polygon //act:frozen
	cells *cellRope       //act:frozen — frozen super covering; serialization input
	tree  *act.Tree       //act:frozen
	table *refs.Table     //act:frozen
	opt   options

	precisionLevel int
}

// frozenCells materializes the snapshot's cell list (tests and tools; the
// hot paths iterate the rope's runs directly).
func (s *Snapshot) frozenCells() []supercover.Cell {
	return s.cells.appendAll(make([]supercover.Cell, 0, s.cells.Len()))
}

// QueryOptions is the one options struct shared by every bulk query entry
// point (CoversBatch, JoinCount and the deprecated Join forwarders). The
// zero value is a sensible default: approximate mode, input order, all CPUs.
type QueryOptions struct {
	// Exact refines candidate hits with PIP tests; results then match
	// Covers. When false, results match CoversApprox.
	Exact bool
	// Sorted probes the points in cell-id order internally, so runs of
	// nearby points share one trie walk. Results are always reported in
	// input order.
	Sorted bool
	// Threads is the number of workers of every batch stage (conversion,
	// sort, probe); 0 uses all CPUs, 1 runs single-threaded. A sharded
	// index does not divide it across shards: every worker probes whichever
	// shards its part of the batch touches.
	Threads int
}

// BatchOptions is the former name of QueryOptions.
//
// Deprecated: use QueryOptions.
type BatchOptions = QueryOptions

func (o QueryOptions) internal() join.BatchOptions {
	mode := join.Approximate
	if o.Exact {
		mode = join.Exact
	}
	return join.BatchOptions{Mode: mode, Sorted: o.Sorted, Threads: o.Threads}
}

// Precision returns the configured precision bound in meters, or 0 when the
// index is exact-only.
func (s *Snapshot) Precision() float64 { return s.opt.precisionMeters }

// Removed reports whether the id belonged to a polygon that had been
// removed when this snapshot was published.
func (s *Snapshot) Removed(id PolygonID) bool {
	return int(id) < len(s.polys) && s.polys[id] == nil
}

// NumPolygons returns the number of polygon id slots (live polygons plus
// tombstones of removed ones) in this snapshot.
func (s *Snapshot) NumPolygons() int { return len(s.polys) }

// Covers returns the ids of all polygons covering p, exactly: candidate
// cells are refined with PIP tests (the paper's accurate join).
func (s *Snapshot) Covers(p Point) []PolygonID {
	return s.query(p, true)
}

// CoversApprox returns polygon ids without any PIP test. With a precision
// bound of d meters, every reported polygon is within d of p; without one,
// results may include polygons whose boundary cells contain p.
func (s *Snapshot) CoversApprox(p Point) []PolygonID {
	return s.query(p, false)
}

func (s *Snapshot) query(p Point, exact bool) []PolygonID {
	gp := geom.Point{X: p.Lon, Y: p.Lat}
	return s.queryLeaf(gp, cellid.FromPoint(gp), exact)
}

// queryLeaf is the point-query core with the leaf cell id already computed;
// the sharded read path routes on the leaf and then probes the owning
// shard's snapshot through this entry point without re-encoding the point.
func (s *Snapshot) queryLeaf(gp geom.Point, leaf cellid.CellID, exact bool) []PolygonID {
	entry := s.tree.Find(leaf)
	if entry.IsFalseHit() {
		return nil
	}
	var out []PolygonID
	s.table.Visit(entry, func(r refs.Ref) {
		if r.Interior() || !exact {
			out = append(out, r.PolygonID())
			return
		}
		if s.polys[r.PolygonID()].ContainsPoint(gp) {
			out = append(out, r.PolygonID())
		}
	})
	return out
}

// CoversBatch answers many point queries in one call: out[i] holds the ids
// of the polygons covering points[i] (nil when none), identical to calling
// Covers (with opt.Exact) or CoversApprox per point, but through the batch
// probe pipeline — optionally cell-id-sorted, run-shared, and parallelized
// over opt.Threads workers.
func (s *Snapshot) CoversBatch(points []Point, opt QueryOptions) [][]PolygonID {
	sh := [1]join.Shard{s.probeShard()}
	out, _ := join.CollectPoints(sh[:], nil, len(s.polys), geomPoints(points), opt.internal())
	return out
}

// JoinCount counts points per polygon through the batch probe pipeline:
// Counts[pid] is the number of points covered by polygon pid, honoring
// QueryOptions (exactness, sorted probing, threads). The returned CacheHits
// reports how many probes shared a run's trie walk.
func (s *Snapshot) JoinCount(points []Point, opt QueryOptions) JoinResult {
	sh := [1]join.Shard{s.probeShard()}
	return toJoinResult(join.CountPoints(sh[:], nil, len(s.polys), geomPoints(points), opt.internal()))
}

// probeShard is the snapshot as a shard of the batch pipeline.
func (s *Snapshot) probeShard() join.Shard {
	return join.Shard{Index: s.tree, Table: s.table, Polys: s.polys}
}

// Join counts points per polygon — the paper's evaluation workload.
//
// Deprecated: use JoinCount, which exposes the same result through the
// unified QueryOptions. Join(points, exact, threads) is exactly
// JoinCount(points, QueryOptions{Exact: exact, Threads: threads}).
func (s *Snapshot) Join(points []Point, exact bool, threads int) JoinResult {
	return s.JoinCount(points, QueryOptions{Exact: exact, Threads: threads})
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

// Stats returns structural statistics of the snapshot.
func (s *Snapshot) Stats() Stats {
	return Stats{
		NumPolygons:     len(s.polys),
		NumCells:        s.cells.Len(),
		NumTrieNodes:    s.tree.NumNodes(),
		OrphanTrieNodes: s.tree.OrphanNodes(),
		TrieSizeBytes:   s.tree.SizeBytes(),
		TableSizeBytes:  s.table.SizeBytes(),
		Granularity:     s.opt.delta,
		PrecisionLevel:  s.precisionLevel,
	}
}
