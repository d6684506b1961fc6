package harness

import (
	"fmt"
	"io"
	"time"

	"actjoin"
	"actjoin/internal/geom"
)

// Publish measures the per-publish latency of the snapshot-publish path the
// engine ships — incremental patching, where a publish re-freezes only the
// mutation's dirty subtrees — across covering sizes, by building the
// neighborhoods index at several precision bounds. The covering grows
// about 50x from the coarsest to the paper's 4 m bound while the latency
// tracks the mutation, not the index. The full-freeze baseline the patch
// path replaced is recorded in BENCH_publish.json and timed by the root
// BenchmarkSnapshotPublishFullRebuildAddRemove.
//
// Not a figure of the paper: runtime updates are sketched in Section 3.1.2
// and left unsynchronized; this quantifies the publish seam our snapshot
// design added on top.
func (e *Env) Publish(w io.Writer) error {
	const ds = "neighborhoods"
	polys := toPublicPolygons(e.Polygons(ds))
	bound := e.Bound(ds)

	t := newTable(w)
	t.row("precision", "cells", "ms/publish", "patched%")
	t.rule(4)
	for _, meters := range []float64{64, 16, 4} {
		idx, err := actjoin.NewIndex(polys, actjoin.WithPrecision(meters))
		if err != nil {
			return err
		}
		cells := idx.Current().Stats().NumCells
		lat, err := publishLatency(idx, bound)
		if err != nil {
			return err
		}
		// The share of the churn's publishes served by a patch; the initial
		// build is the one full publish not counted.
		st := idx.PublishStats()
		t.row(
			fmt.Sprintf("%gm", meters),
			fmt.Sprintf("%d", cells),
			fmt.Sprintf("%.2f", lat.Seconds()*1e3),
			fmtPct(100*float64(st.Patched)/float64(st.Patched+st.Full-1)),
		)
	}
	return t.flush()
}

// publishLatency measures the per-publish latency of an Add/Remove churn
// (every op publishes once), fastest of measureRepeats passes — the same
// noise-stripping the join measurements use.
func publishLatency(idx *actjoin.Index, bound geom.Rect) (time.Duration, error) {
	const churn = 4
	best := time.Duration(0)
	for rep := 0; rep < measureRepeats; rep++ {
		start := time.Now()
		for i := 0; i < churn; i++ {
			id, err := idx.Add(churnSquare(bound, rep*churn+i))
			if err != nil {
				return 0, err
			}
			if err := idx.Remove(id); err != nil {
				return 0, err
			}
		}
		d := time.Since(start) / (2 * churn)
		if rep == 0 || d < best {
			best = d
		}
	}
	return best, nil
}
