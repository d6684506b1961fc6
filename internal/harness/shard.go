package harness

import (
	"fmt"
	"io"
	"sync"
	"time"

	"actjoin"
	"actjoin/internal/geom"
)

// Shard sweeps the sharded engine against the single-shard baseline: for
// each shard count it builds an index over the neighborhoods mesh and
// measures composed batch-join throughput (single- and all-threads) plus the
// aggregate publish rate with one churn writer per shard, each targeting its
// own shard's key range. Every shard count runs the same batch pipeline
// (one conversion, one global sort, runs routed to their shards), so the
// join columns should not depend on the shard count; the publish column
// shows cross-shard write scaling — single-shard commits on different
// shards share the commit lock in read mode, so on a multi-core host they
// publish concurrently where a one-shard index serializes on one mutex.
//
// Not a figure of the paper: the paper's index is single-writer and static;
// this quantifies the sharded extension.
func (e *Env) Shard(w io.Writer) error {
	const ds = "neighborhoods"
	polys := toPublicPolygons(e.Polygons(ds))
	pts := toPublicPoints(e.TaxiPoints(ds).Points)
	bound := e.Bound(ds)
	threads := e.cfg.MaxThreads

	t := newTable(w)
	t.row("shards", "cells",
		"join 1T [Mpts/s]",
		fmt.Sprintf("join %dT [Mpts/s]", threads),
		"parallel publishes/s")
	t.rule(5)
	for _, shards := range []int{1, 2, 4} {
		six, err := actjoin.NewShardedIndex(polys, shards, actjoin.WithPrecision(4))
		if err != nil {
			return err
		}
		cells := six.Current().Stats().NumCells

		j1 := bestOfJoin(func() actjoin.JoinResult {
			return six.Current().JoinCount(pts, actjoin.QueryOptions{Sorted: true, Threads: 1})
		})
		jm := bestOfJoin(func() actjoin.JoinResult {
			return six.Current().JoinCount(pts, actjoin.QueryOptions{Sorted: true, Threads: threads})
		})

		pubs, err := parallelPublishRate(six, bound)
		if err != nil {
			return err
		}

		t.row(
			fmt.Sprintf("%d (%d eff)", shards, six.NumShards()),
			fmt.Sprintf("%d", cells),
			fmtMpts(j1.ThroughputMpts),
			fmtMpts(jm.ThroughputMpts),
			fmt.Sprintf("%.0f", pubs),
		)
		if err := six.Close(); err != nil {
			return err
		}
	}
	return t.flush()
}

// parallelPublishRate runs one Add/Remove churn writer per shard, each
// against its own shard's key range, and returns the aggregate publish rate.
func parallelPublishRate(six *actjoin.ShardedIndex, bound geom.Rect) (float64, error) {
	targets := shardTargets(six, bound)
	const pairsPerWriter = 40
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	start := time.Now()
	for wi, base := range targets {
		wg.Add(1)
		//act:norecover harness churn writer; a panic crashing the harness run is the desired signal
		go func(wi int, base actjoin.Point) {
			defer wg.Done()
			for i := 0; i < pairsPerWriter; i++ {
				id, err := six.Add(targetSquare(base, i))
				if err != nil {
					errs[wi] = err
					return
				}
				if err := six.Remove(id); err != nil {
					errs[wi] = err
					return
				}
			}
		}(wi, base)
	}
	wg.Wait()
	dur := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("shard churn writer: %w", err)
		}
	}
	return float64(2*pairsPerWriter*len(targets)) / dur.Seconds(), nil
}

// shardTargets finds one representative point per shard by routing a grid
// over the dataset bound through ShardOf. Shards whose key range holds no
// grid point (possible under an extremely skewed split) simply get no
// writer.
func shardTargets(six *actjoin.ShardedIndex, bound geom.Rect) []actjoin.Point {
	targets := make([]actjoin.Point, six.NumShards())
	found := make([]bool, six.NumShards())
	n := 0
	const grid = 64
	for gy := 0; gy < grid && n < len(targets); gy++ {
		for gx := 0; gx < grid && n < len(targets); gx++ {
			p := actjoin.Point{
				Lon: bound.Lo.X + (float64(gx)+0.5)/grid*(bound.Hi.X-bound.Lo.X),
				Lat: bound.Lo.Y + (float64(gy)+0.5)/grid*(bound.Hi.Y-bound.Lo.Y),
			}
			if si := six.ShardOf(p); !found[si] {
				found[si] = true
				targets[si] = p
				n++
			}
		}
	}
	out := targets[:0]
	for si, ok := range found {
		if ok {
			out = append(out, targets[si])
		}
	}
	return out
}

// targetSquare returns a tiny square near a shard's target point, jittered
// per iteration so successive adds do not hit identical cells while staying
// inside the target shard's key range.
func targetSquare(base actjoin.Point, i int) actjoin.Polygon {
	const s = 0.0015
	x := base.Lon + float64(i%7)*0.0003
	y := base.Lat + float64(i%5)*0.0003
	return actjoin.Polygon{Exterior: actjoin.Ring{
		{Lon: x, Lat: y}, {Lon: x + s, Lat: y},
		{Lon: x + s, Lat: y + s}, {Lon: x, Lat: y + s},
	}}
}
