package actjoin

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Sharded-engine benchmarks: what partitioning the covering buys (and costs)
// on the two paths it exists for — composed batch joins, where one batch
// pipeline routes runs of probes to their shards, and parallel publishing,
// where writers on different shards commit under the shared side of the
// commit lock instead of one global writer mutex. The join benchmark sweeps
// worker threads, the publish benchmark GOMAXPROCS 1, 2 and 4; the recorded
// numbers, with the host's core count, are in BENCH_shard.json.

type shardBenchFixture struct {
	sharded map[int]*ShardedIndex // keyed by effective shard count
	taxi    []Point
	bound   geom.Rect
}

var (
	shardBenchOnce sync.Once
	shardBenchFix  *shardBenchFixture
)

// shardBenchFixtureBuild builds the shared benchmark shape (the tiny NYC
// neighborhoods mesh under the 4m bound, as buildTinyNYC4mIndex) once per
// shard count. The publish benchmarks mutate these indexes with Add/Remove
// pairs, which restore the covering but accumulate tombstone id slots — the
// same caveat as the snapshot fixture, and why this fixture is not shared
// with the quiescent batch benchmarks.
func shardBenchFixtureBuild(b *testing.B) *shardBenchFixture {
	b.Helper()
	shardBenchOnce.Do(func() {
		spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
		polys := toPublicPolys(spec.Generate())
		f := &shardBenchFixture{
			sharded: map[int]*ShardedIndex{},
			taxi:    toPublicPts(dataset.TaxiPoints(spec.Bound, 100_000, 21)),
			bound:   spec.Bound,
		}
		for _, shards := range []int{1, 2, 4} {
			six, err := NewShardedIndex(polys, shards, WithPrecision(4))
			if err != nil {
				panic(err)
			}
			f.sharded[shards] = six
		}
		shardBenchFix = f
	})
	return shardBenchFix
}

// shardChurnTargets finds one representative point per shard by routing a
// grid over the bound through ShardOf.
func shardChurnTargets(six *ShardedIndex, bound geom.Rect) []Point {
	targets := make([]Point, six.NumShards())
	found := make([]bool, six.NumShards())
	n := 0
	const grid = 64
	for gy := 0; gy < grid && n < len(targets); gy++ {
		for gx := 0; gx < grid && n < len(targets); gx++ {
			p := Point{
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

// shardChurnSquare returns a tiny square near the writer's target point,
// jittered per iteration so successive adds do not hit identical cells while
// staying inside (or at worst adjacent to) the target shard's key range.
func shardChurnSquare(base Point, i int) Polygon {
	const s = 0.0015
	x := base.Lon + float64(i%7)*0.0003
	y := base.Lat + float64(i%5)*0.0003
	return Polygon{Exterior: Ring{
		{Lon: x, Lat: y}, {Lon: x + s, Lat: y},
		{Lon: x + s, Lat: y + s}, {Lon: x, Lat: y + s},
	}}
}

// benchGOMAXPROCS pins the scheduler width for a sub-benchmark and returns
// the restore function.
func benchGOMAXPROCS(procs int) (restore func()) {
	prev := runtime.GOMAXPROCS(procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

// BenchmarkShardedJoinBatch runs the composed sorted batch join at 1, 2
// and 4 shards with 1 and 2 worker threads. Every shard count takes the same
// pipeline (one conversion, one global sort, runs routed to their shards),
// so the shards=1 rows are the baseline the others should match. It reports
// throughput and the share of probes that shared a run's trie walk.
func BenchmarkShardedJoinBatch(b *testing.B) {
	f := shardBenchFixtureBuild(b)
	for _, threads := range []int{1, 2} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("threads=%d/shards=%d", threads, shards), func(b *testing.B) {
				s := f.sharded[shards].Current()
				opt := QueryOptions{Sorted: true, Threads: threads}
				var hits int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res := s.JoinCount(f.taxi, opt)
					if res.Counts == nil {
						b.Fatal("bad join")
					}
					hits += res.CacheHits
				}
				reportBatchMpts(b, len(f.taxi))
				b.ReportMetric(float64(hits)/float64(b.N*len(f.taxi)), "hit-ratio")
			})
		}
	}
}

// BenchmarkShardedPublishParallel measures aggregate publish throughput with
// one churn writer per shard, each looping Add/Remove against its own
// shard's key range: on the sharded index those publishes serialize only on
// the shared side of the commit lock (plus each shard's own writer mutex),
// where the single-shard index serializes everything on one mutex.
func BenchmarkShardedPublishParallel(b *testing.B) {
	f := shardBenchFixtureBuild(b)
	for _, procs := range []int{1, 2, 4} {
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("procs=%d/shards=%d", procs, shards), func(b *testing.B) {
				defer benchGOMAXPROCS(procs)()
				six := f.sharded[shards]
				writers := shardChurnTargets(six, f.bound)
				per := b.N/len(writers) + 1
				b.ResetTimer()
				var wg sync.WaitGroup
				for _, base := range writers {
					wg.Add(1)
					go func(base Point) {
						defer wg.Done()
						for i := 0; i < per; i++ {
							id, err := six.Add(shardChurnSquare(base, i))
							if err != nil {
								b.Error(err)
								return
							}
							if err := six.Remove(id); err != nil {
								b.Error(err)
								return
							}
						}
					}(base)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(2*per*len(writers))/b.Elapsed().Seconds(), "publishes/s")
			})
		}
	}
}
