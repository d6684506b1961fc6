package harness

import (
	"fmt"
	"io"
	"time"

	"actjoin"
	"actjoin/internal/geom"
)

// Remove measures the per-Remove latency of the removal path the engine
// ships — the per-polygon cell directory, which locates a polygon's cells
// without walking the covering — across covering sizes, by building the
// neighborhoods index at several precision bounds. The latency tracks the
// removed polygon's footprint, which the churn polygon keeps roughly
// constant across precisions, not the covering size. The full-quadtree walk
// the directory replaced is recorded in BENCH_remove.json and timed by the
// root BenchmarkSnapshotRemovePublishWalk.
//
// Not a figure of the paper: removal is sketched in Section 3.1.2 as
// following "the same logic" as insertion; this quantifies what locating a
// polygon's cells costs with the reverse mapping.
func (e *Env) Remove(w io.Writer) error {
	const ds = "neighborhoods"
	polys := toPublicPolygons(e.Polygons(ds))
	bound := e.Bound(ds)

	t := newTable(w)
	t.row("precision", "cells", "footprint", "ms/remove")
	t.rule(4)
	for _, meters := range []float64{64, 16, 4} {
		idx, err := actjoin.NewIndex(polys, actjoin.WithPrecision(meters))
		if err != nil {
			return err
		}
		cells := idx.Current().Stats().NumCells
		lat, footprint, err := removeLatency(idx, bound)
		if err != nil {
			return err
		}
		t.row(
			fmt.Sprintf("%gm", meters),
			fmt.Sprintf("%d", cells),
			fmt.Sprintf("%d", footprint),
			fmt.Sprintf("%.2f", lat.Seconds()*1e3),
		)
	}
	return t.flush()
}

// removeLatency measures the per-Remove latency (locating the polygon's
// cells, editing them, publishing the snapshot) of an Add/Remove churn with
// only the Remove halves timed, fastest of measureRepeats passes. It also
// reports the largest churn-polygon footprint seen, the removal's cost
// driver.
func removeLatency(idx *actjoin.Index, bound geom.Rect) (time.Duration, int, error) {
	const churn = 4
	best := time.Duration(0)
	footprint := 0
	for rep := 0; rep < measureRepeats; rep++ {
		var total time.Duration
		for i := 0; i < churn; i++ {
			id, err := idx.Add(churnSquare(bound, rep*churn+i))
			if err != nil {
				return 0, 0, err
			}
			if fp := idx.FootprintCells(id); fp > footprint {
				footprint = fp
			}
			start := time.Now()
			if err := idx.Remove(id); err != nil {
				return 0, 0, err
			}
			total += time.Since(start)
		}
		if d := total / churn; rep == 0 || d < best {
			best = d
		}
	}
	return best, footprint, nil
}
