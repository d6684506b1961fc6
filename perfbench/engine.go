package main

import (
	"fmt"
	"time"

	"actjoin"
	"actjoin/internal/geom"
)

// This file is the benchmark's only door into the public engine: every
// call on the actjoin API goes through the adapter below, so a change of
// the public API is a one-file edit here.

// point is the public API's point type; inputs are converted once, before
// any timing starts.
type point = actjoin.Point

// polygon is the public API's polygon type.
type polygon = actjoin.Polygon

// engine wraps one public sharded index.
type engine struct {
	ix *actjoin.ShardedIndex
}

// newEngine builds the public index over the polygons with the given shard
// count and precision bound in meters.
func newEngine(polys []*geom.Polygon, shards int, precision float64) (*engine, error) {
	ix, err := actjoin.NewShardedIndex(toPublicPolygons(polys), shards, actjoin.WithPrecision(precision))
	if err != nil {
		return nil, fmt.Errorf("build index: %w", err)
	}
	return &engine{ix: ix}, nil
}

// toPublicPolygons converts generated polygons to the public type.
func toPublicPolygons(polys []*geom.Polygon) []polygon {
	out := make([]polygon, len(polys))
	for i, p := range polys {
		out[i] = toPublicPolygon(p)
	}
	return out
}

func toPublicPolygon(p *geom.Polygon) polygon {
	ring := func(r geom.Ring) actjoin.Ring {
		out := make(actjoin.Ring, len(r))
		for i, v := range r {
			out[i] = point{Lon: v.X, Lat: v.Y}
		}
		return out
	}
	pp := polygon{Exterior: ring(p.Rings[0])}
	for _, h := range p.Rings[1:] {
		pp.Holes = append(pp.Holes, ring(h))
	}
	return pp
}

// toPublicPoints converts generated points to the public type.
func toPublicPoints(pts []geom.Point) []point {
	out := make([]point, len(pts))
	for i, p := range pts {
		out[i] = point{Lon: p.X, Lat: p.Y}
	}
	return out
}

// numShards returns the effective shard count.
func (e *engine) numShards() int { return e.ix.NumShards() }

// shardOf returns the shard serving probes of p.
func (e *engine) shardOf(p geom.Point) int { return e.ix.ShardOf(point{Lon: p.X, Lat: p.Y}) }

// add inserts a polygon and publishes; it returns the polygon's id.
func (e *engine) add(p polygon) (uint32, error) { return e.ix.Add(p) }

// remove deletes a polygon and publishes.
func (e *engine) remove(id uint32) error { return e.ix.Remove(id) }

// close stops the index's background work.
func (e *engine) close() error { return e.ix.Close() }

// publishStats is the subset of the public publish counters the benchmark
// reads.
type publishStats struct {
	patched, full              int
	started, landed, failed    int
	reconcileAborts, pubPanics int
}

func (e *engine) publishStats() publishStats {
	ps := e.ix.PublishStats()
	return publishStats{
		patched: ps.Patched, full: ps.Full,
		started: ps.CompactionsStarted, landed: ps.CompactionsLanded, failed: ps.CompactionsFailed,
		reconcileAborts: ps.ReconcileAborts, pubPanics: ps.PublishPanics,
	}
}

// healthErr returns nil when the index and every shard are healthy, else a
// description of the degradation.
func (e *engine) healthErr() error {
	h := e.ix.Health()
	if h.State != actjoin.Healthy {
		return fmt.Errorf("index health %v: %v", h.State, h.Cause)
	}
	for i, sh := range h.Shards {
		if sh.State != actjoin.Healthy {
			return fmt.Errorf("shard %d health %v: %v", i, sh.State, sh.Cause)
		}
	}
	return nil
}

// view is one pinned snapshot of the index: a batch, a lookup chunk or a
// statistics read each use exactly one.
type view struct {
	s *actjoin.ShardedSnapshot //act:pinned one consistent view per batch or lookup chunk
}

// pin returns the current snapshot.
func (e *engine) pin() view { return view{s: e.ix.Current()} }

// joinOut is what one JoinCount call returns to the benchmark.
type joinOut struct {
	counts    []int64
	pipTests  int64
	cacheHits int64
	reported  time.Duration // JoinResult.Duration, a diagnostic only
}

// joinCount runs one exact, sorted JoinCount batch.
func (v view) joinCount(pts []point, threads int) joinOut {
	r := v.s.JoinCount(pts, actjoin.QueryOptions{Exact: true, Sorted: true, Threads: threads})
	return joinOut{counts: r.Counts, pipTests: r.PIPTests, cacheHits: r.CacheHits, reported: r.Duration}
}

// covers answers one exact point query.
func (v view) covers(p point) []uint32 { return v.s.Covers(p) }

// indexStats is the subset of the public snapshot statistics the benchmark
// reads.
type indexStats struct {
	cells, trieNodes, orphanNodes int
	trieBytes, tableBytes         int
}

// sizeMB is the index size the benchmark reports: trie arena plus lookup
// table, in MB.
func (st indexStats) sizeMB() float64 { return float64(st.trieBytes+st.tableBytes) / 1e6 }

func (v view) stats() indexStats {
	st := v.s.Stats()
	return indexStats{
		cells: st.NumCells, trieNodes: st.NumTrieNodes, orphanNodes: st.OrphanTrieNodes,
		trieBytes: st.TrieSizeBytes, tableBytes: st.TableSizeBytes,
	}
}
