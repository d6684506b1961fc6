package harness

import (
	"fmt"
	"io"
	"time"

	"actjoin"
)

// Compact measures the publish-latency tail across compaction cycles of the
// compaction path the engine ships: the background compactor, which
// rebuilds the frozen structures off the writer's critical path while the
// writer keeps patching. It drives an Add/Remove churn long enough to land
// at least two compactions and reports the mean and worst per-publish
// latency plus the cycle count; the worst publish stays bounded by the
// mutation (plus scheduler interference from the concurrent rebuild on
// small machines). The stop-the-writer inline rebuild it replaced is
// recorded in BENCH_compact.json and timed by the root
// BenchmarkPublishTailLatencyInlineCompaction.
//
// Not a figure of the paper: the paper's index is static; this quantifies
// the maintenance seam of our live-update extension.
func (e *Env) Compact(w io.Writer) error {
	const ds = "neighborhoods"
	polys := toPublicPolygons(e.Polygons(ds))
	bound := e.Bound(ds)

	t := newTable(w)
	t.row("cells", "publishes", "compactions", "mean ms/publish", "worst ms/publish")
	t.rule(5)
	idx, err := actjoin.NewIndex(polys, actjoin.WithPrecision(4))
	if err != nil {
		return err
	}
	cells := idx.Current().Stats().NumCells

	const (
		minCycles = 2
		maxPairs  = 2000
	)
	var total, worst time.Duration
	publishes := 0
	for i := 0; i < maxPairs && idx.PublishStats().CompactionsLanded < minCycles; i++ {
		for _, op := range [2]func() error{
			func() error { _, err := idx.Add(churnSquare(bound, i)); return err },
			func() error { return idx.Remove(actjoin.PolygonID(idx.Current().NumPolygons() - 1)) },
		} {
			start := time.Now()
			if err := op(); err != nil {
				return err
			}
			d := time.Since(start)
			total += d
			publishes++
			if d > worst {
				worst = d
			}
		}
	}
	t.row(
		fmt.Sprintf("%d", cells),
		fmt.Sprintf("%d", publishes),
		fmt.Sprintf("%d", idx.PublishStats().CompactionsLanded),
		fmt.Sprintf("%.2f", (total/time.Duration(publishes)).Seconds()*1e3),
		fmt.Sprintf("%.2f", worst.Seconds()*1e3),
	)
	return t.flush()
}
