package actjoin

import (
	"sort"
	"testing"
	"time"
)

// Publish tail-latency benchmarks: the background compactor exists to cut
// the worst-case publish under churn, not the mean — steady-state patched
// publishes were already ~15 ms at the 0.9M-cell fixture, but every ~80
// Add/Remove pairs the accumulated patch garbage used to trigger a
// stop-the-writer compacting rebuild of ~300-470 ms. These benchmarks drive
// the same churn as BenchmarkSnapshotPublishAddRemove while timing every
// individual publish, and report the distribution tail. Run with
// -benchtime 300x or more so the churn crosses several compaction cycles;
// the recorded pair is in BENCH_compact.json.

// benchPublishTail churns b.N Add/Remove pairs (two publishes each), timing
// each publish, and reports mean, p99 and worst-case latency plus the
// compaction cycles the run crossed.
func benchPublishTail(b *testing.B, background bool) {
	f := snapshotBenchFixture(b)
	withShards(f.idx, func(sh *shard) { sh.inlineCompaction = !background })
	defer withShards(f.idx, func(sh *shard) { sh.inlineCompaction = false })
	before := f.idx.PublishStats()
	durs := make([]time.Duration, 0, 2*b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		id, err := f.idx.Add(benchChurnSquare(f.bound, i))
		mid := time.Now()
		if err != nil {
			b.Fatal(err)
		}
		if err := f.idx.Remove(id); err != nil {
			b.Fatal(err)
		}
		end := time.Now()
		durs = append(durs, mid.Sub(start), end.Sub(mid))
	}
	b.StopTimer()
	after := f.idx.PublishStats()
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	mean := time.Duration(0)
	for _, d := range durs {
		mean += d
	}
	mean /= time.Duration(len(durs))
	b.ReportMetric(mean.Seconds()*1e3, "mean-ms/publish")
	b.ReportMetric(durs[len(durs)*99/100].Seconds()*1e3, "p99-ms/publish")
	b.ReportMetric(durs[len(durs)-1].Seconds()*1e3, "worst-ms/publish")
	if background {
		b.ReportMetric(float64(after.CompactionsLanded-before.CompactionsLanded), "compactions")
	} else {
		b.ReportMetric(float64(after.Full-before.Full), "compactions")
	}
}

// BenchmarkPublishTailLatency is the default configuration: threshold
// crossings compact in the background while the writer keeps patching.
func BenchmarkPublishTailLatency(b *testing.B) { benchPublishTail(b, true) }

// BenchmarkPublishTailLatencyInlineCompaction is the pre-compactor
// behaviour (the inlineCompaction hook): every threshold crossing
// rebuilds inline, stalling that publish for the full rebuild. It flips the
// fixture's compaction mode for its duration (benchmarks in this file run
// sequentially).
func BenchmarkPublishTailLatencyInlineCompaction(b *testing.B) { benchPublishTail(b, false) }
