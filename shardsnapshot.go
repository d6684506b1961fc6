package actjoin

import (
	"io"
	"runtime"

	"actjoin/internal/cellid"
	"actjoin/internal/fault"
	"actjoin/internal/geom"
	"actjoin/internal/join"
)

// ShardedSnapshot is an immutable composed view of a ShardedIndex: one
// pinned Snapshot per shard plus the router that maps probes to them. It
// carries every read operation of the sharded index with the same contract
// as Snapshot — never changes after it is returned, all methods are safe
// for unlimited concurrent use, no locks, never blocks writers.
//
// Consistency: the view is generation-consistent. Current never returns a
// composition gathered while a multi-shard commit (Apply, Train) was in
// flight, so a batch staged through one ShardTx is observed either on every
// shard or on none — the composed view is never torn. Independent
// single-shard mutations publish atomically per shard and carry no
// cross-shard ordering promise, exactly as independent mutations on two
// separate indexes would not.
type ShardedSnapshot struct {
	shards []*Snapshot  //act:frozen
	probe  []join.Shard //act:frozen — the shards as the batch pipeline probes them
	router shardRouter  //act:frozen
	gen    uint64       // commit generation (even) the composition was pinned at
}

// seqlockSpins bounds Current's optimistic retries before it serializes
// behind the committers on the commit lock.
const seqlockSpins = 64

// Current returns a generation-consistent composed snapshot: one pinned
// snapshot per shard, gathered while no multi-shard commit was in flight.
// The common path is lock-free — read the commit generation, gather the
// shards' atomic snapshot pointers, and retry if the generation moved (a
// seqlock) — and under sustained multi-shard commit pressure it falls back
// to sharing the commit lock, which commits leave with an even generation.
// Like Index.Current, hold the result for as long as one consistent view is
// needed and call again whenever a fresher one is wanted.
//
//act:refresh the seqlock re-reads gen and the shard pointers each attempt by design
func (six *ShardedIndex) Current() *ShardedSnapshot {
	snaps := make([]*Snapshot, len(six.shards))
	for tries := 0; tries < seqlockSpins; tries++ {
		g := six.gen.Load()
		if g&1 != 0 {
			runtime.Gosched() // a multi-shard commit is fanning out
			continue
		}
		for i, sh := range six.shards {
			snaps[i] = sh.Current()
		}
		if six.gen.Load() == g {
			return newShardedSnapshot(snaps, six.router, g)
		}
	}
	// Contended: serialize behind the committers instead of spinning on.
	six.wmu.RLock()
	for i, sh := range six.shards {
		snaps[i] = sh.Current()
	}
	g := six.gen.Load()
	six.wmu.RUnlock()
	return newShardedSnapshot(snaps, six.router, g)
}

func newShardedSnapshot(snaps []*Snapshot, router shardRouter, gen uint64) *ShardedSnapshot {
	probe := make([]join.Shard, len(snaps))
	for i, sh := range snaps {
		probe[i] = sh.probeShard()
	}
	return &ShardedSnapshot{shards: snaps, probe: probe, router: router, gen: gen}
}

// NumPolygons returns the number of polygon id slots in this view (live
// polygons plus tombstones), the maximum over the shards: a shard's slice
// only grows past an id when it owns cells of it, so the longest slice has
// seen every committed id.
func (s *ShardedSnapshot) NumPolygons() int {
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
func (s *ShardedSnapshot) Removed(id PolygonID) bool {
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
func (s *ShardedSnapshot) Precision() float64 { return s.shards[0].opt.precisionMeters }

// Covers returns the ids of all polygons covering p, exactly. Covering
// cells are disjoint and shard ranges contiguous, so the probe's leaf cell
// has exactly one owning shard; the query is a route plus one single-shard
// probe.
func (s *ShardedSnapshot) Covers(p Point) []PolygonID { return s.query(p, true) }

// CoversApprox returns polygon ids without any PIP test; see
// Snapshot.CoversApprox for the precision-bound semantics.
func (s *ShardedSnapshot) CoversApprox(p Point) []PolygonID { return s.query(p, false) }

func (s *ShardedSnapshot) query(p Point, exact bool) []PolygonID {
	gp := geom.Point{X: p.Lon, Y: p.Lat}
	leaf := cellid.FromPoint(gp)
	return s.shards[s.router.shardOfLeaf(leaf)].queryLeaf(gp, leaf, exact)
}

// CoversBatch answers many point queries in one call, identical to
// Snapshot.CoversBatch: one batch pipeline converts and sorts the whole
// batch and routes each run of probes to the shard owning it; all
// opt.Threads workers serve every shard.
func (s *ShardedSnapshot) CoversBatch(points []Point, opt QueryOptions) [][]PolygonID {
	out, _ := join.CollectPoints(s.probe, s.router.bounds, s.NumPolygons(), geomPoints(points), opt.internal())
	return out
}

// JoinCount counts points per polygon through the batch pipeline,
// identical in Counts to Snapshot.JoinCount on an equivalent unsharded
// index. PIPTests and CacheHits depend on where the shard bounds cut runs,
// so their values (not the Counts) can differ from an unsharded run.
func (s *ShardedSnapshot) JoinCount(points []Point, opt QueryOptions) JoinResult {
	return toJoinResult(join.CountPoints(s.probe, s.router.bounds, s.NumPolygons(), geomPoints(points), opt.internal()))
}

// Join counts points per polygon.
//
// Deprecated: use JoinCount, as with Snapshot.Join.
func (s *ShardedSnapshot) Join(points []Point, exact bool, threads int) JoinResult {
	return s.JoinCount(points, QueryOptions{Exact: exact, Threads: threads})
}

// WriteTo serializes the composed view in the exact format and byte order
// of Snapshot.WriteTo: shard ranges are contiguous and the super covering
// disjoint, so concatenating the shards' frozen cells in shard order IS
// global cell-id order, and the polygon set is the shards' nil-masked
// slices merged by first non-nil slot. An index whose covering never needed
// boundary decomposition (see the package comment in shard.go) therefore
// serializes byte-identically to the unsharded index holding the same
// state, and ReadIndexFrom loads either stream into an equivalent index.
// It implements io.WriterTo.
//
//act:seam
func (s *ShardedSnapshot) WriteTo(w io.Writer) (int64, error) {
	if err := fault.Hit(fault.SerializeWrite); err != nil {
		return 0, err
	}
	ropes := make([]*cellRope, len(s.shards))
	for i, sh := range s.shards {
		ropes[i] = sh.cells
	}
	sh0 := s.shards[0]
	body := appendIndexBody(nil, sh0.opt, sh0.precisionLevel, s.mergedPolys(), ropes...)
	return writeIndexPayload(w, body)
}

// mergedPolys merges the shards' nil-masked polygon slices into the global
// one: each live polygon is present (identically) in every owner shard, so
// the first non-nil slot wins; slots nil everywhere are tombstones in every
// shard and stay tombstones.
func (s *ShardedSnapshot) mergedPolys() []*geom.Polygon {
	if len(s.shards) == 1 {
		return s.shards[0].polys
	}
	out := make([]*geom.Polygon, s.NumPolygons())
	for _, sh := range s.shards {
		for i, p := range sh.polys {
			if p != nil && out[i] == nil {
				out[i] = p
			}
		}
	}
	return out
}

// Stats returns structural statistics of the composed view: sizes are
// summed across shards, NumPolygons is the composed id-slot count, and the
// configuration fields are shared by every shard.
func (s *ShardedSnapshot) Stats() Stats {
	var st Stats
	for _, sh := range s.shards {
		ss := sh.Stats()
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
