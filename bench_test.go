// Benchmarks: one testing.B entry per table and figure of the paper, each
// exercising the code path that regenerates it (the full sweeps live in
// cmd/actbench). Fixtures are built once and shared; dataset sizes are the
// tiny scale so `go test -bench=.` stays tractable.
package actjoin

import (
	"sync"
	"testing"

	"actjoin/internal/act"
	"actjoin/internal/btree"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/dataset"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/rasterjoin"
	"actjoin/internal/refs"
	"actjoin/internal/rtree"
	"actjoin/internal/shapeindex"
	"actjoin/internal/sortedvec"
	"actjoin/internal/supercover"
)

// fixture is the shared benchmark environment.
type fixture struct {
	polys    []*geom.Polygon
	bound    geom.Rect
	accurate struct {
		kvs   []cellindex.KeyEntry
		table *refs.Table
	}
	precise struct { // refined to benchPrecisionLevel
		kvs   []cellindex.KeyEntry
		table *refs.Table
	}
	taxiPts    []geom.Point
	taxiCells  []cellid.CellID
	uniPts     []geom.Point
	uniCells   []cellid.CellID
	trainCells []cellid.CellID
}

const benchPrecisionLevel = 17 // tiny-scale stand-in for the 4m level

var (
	fixOnce sync.Once
	fix     *fixture

	boroughsOnce sync.Once
	boroughsFix  *fixture
)

func buildFixture(spec dataset.Spec) *fixture {
	f := &fixture{bound: spec.Bound}
	f.polys = spec.Generate()

	sc := supercover.Build(f.polys, supercover.DefaultOptions())
	f.accurate.kvs, f.accurate.table = cellindex.Encode(sc.Cells())

	sc2 := supercover.Build(f.polys, supercover.DefaultOptions())
	sc2.RefineToPrecision(f.polys, benchPrecisionLevel)
	f.precise.kvs, f.precise.table = cellindex.Encode(sc2.Cells())

	f.taxiPts = dataset.TaxiPoints(spec.Bound, 200_000, 1)
	f.taxiCells = dataset.ToCellIDs(f.taxiPts)
	f.uniPts = dataset.UniformPoints(spec.Bound, 200_000, 2)
	f.uniCells = dataset.ToCellIDs(f.uniPts)
	f.trainCells = dataset.ToCellIDs(dataset.TaxiPoints(spec.Bound, 50_000, 3))
	return f
}

func neighborhoods(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() { fix = buildFixture(dataset.NYCNeighborhoods(dataset.ScaleTiny)) })
	return fix
}

func boroughs(b *testing.B) *fixture {
	b.Helper()
	boroughsOnce.Do(func() { boroughsFix = buildFixture(dataset.NYCBoroughs(dataset.ScaleTiny)) })
	return boroughsFix
}

// probeLoop measures single-threaded probe throughput over a cell set.
func probeLoop(b *testing.B, idx cellindex.Index, cells []cellid.CellID) {
	b.ReportAllocs()
	b.ResetTimer()
	n := len(cells)
	for i := 0; i < b.N; i++ {
		_ = idx.Find(cells[i%n])
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobe/s")
}

// --- Table 1: super covering construction ---

func BenchmarkTable1SuperCovering(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := supercover.Build(f.polys, supercover.DefaultOptions())
		_ = sc.NumCells()
	}
}

func BenchmarkTable1PrecisionRefinement(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := supercover.Build(f.polys, supercover.DefaultOptions())
		sc.RefineToPrecision(f.polys, benchPrecisionLevel)
		_ = sc.NumCells()
	}
}

// --- Table 2: index build times ---

func BenchmarkTable2BuildACT4(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = act.Build(f.precise.kvs, act.Delta4)
	}
}

func BenchmarkTable2BuildACT1(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = act.Build(f.precise.kvs, act.Delta1)
	}
}

func BenchmarkTable2BuildGBT(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = btree.Build(f.precise.kvs, 0)
	}
}

func BenchmarkTable2BuildLB(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sortedvec.Build(f.precise.kvs)
	}
}

// --- Figure 7 left: probe throughput per structure (taxi points) ---

func BenchmarkFig7LeftACT4(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.taxiCells)
}

func BenchmarkFig7LeftACT2(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta2), f.taxiCells)
}

func BenchmarkFig7LeftACT1(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta1), f.taxiCells)
}

func BenchmarkFig7LeftGBT(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, btree.Build(f.precise.kvs, 0), f.taxiCells)
}

func BenchmarkFig7LeftLB(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, sortedvec.Build(f.precise.kvs), f.taxiCells)
}

// --- Figure 7 middle: coarse vs fine covering (ACT4) ---

func BenchmarkFig7MiddleCoarseCovering(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.accurate.kvs, act.Delta4), f.taxiCells)
}

func BenchmarkFig7MiddleFineCovering(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.taxiCells)
}

// --- Figure 7 right: parallel probe scaling ---

func BenchmarkFig7RightParallelACT4(b *testing.B) {
	f := neighborhoods(b)
	tree := act.Build(f.precise.kvs, act.Delta4)
	n := len(f.taxiCells)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			_ = tree.Find(f.taxiCells[i%n])
			i++
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mprobe/s")
}

// --- Table 3: coarse (boroughs) vs fine (neighborhoods) datasets ---

func BenchmarkTable3BoroughsACT4(b *testing.B) {
	f := boroughs(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.taxiCells)
}

func BenchmarkTable3NeighborhoodsACT4(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.taxiCells)
}

// --- Table 4: traversal depth instrumentation ---

func BenchmarkTable4DepthHistogram(b *testing.B) {
	f := neighborhoods(b)
	tree := act.Build(f.precise.kvs, act.Delta4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = join.DepthHistogram(tree, f.taxiCells)
	}
}

// --- Table 5: uniform vs taxi probe cost (the counter substitution) ---

func BenchmarkTable5UniformACT4(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.uniCells)
}

func BenchmarkTable5TaxiACT4(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.taxiCells)
}

// --- Figure 8: uniform point throughput ---

func BenchmarkFig8UniformACT4(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, act.Build(f.precise.kvs, act.Delta4), f.uniCells)
}

func BenchmarkFig8UniformLB(b *testing.B) {
	f := neighborhoods(b)
	probeLoop(b, sortedvec.Build(f.precise.kvs), f.uniCells)
}

// --- Figure 9: Twitter workload (full join including ref decoding) ---

func BenchmarkFig9TwitterJoinACT4(b *testing.B) {
	f := neighborhoods(b)
	tree := act.Build(f.precise.kvs, act.Delta4)
	pts := dataset.TwitterPoints(f.bound, 100_000, 9)
	cells := dataset.ToCellIDs(pts)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := join.Run(tree, f.precise.table, pts, cells, f.polys, join.Options{Mode: join.Approximate})
		if res.Points != len(pts) {
			b.Fatal("bad run")
		}
	}
	b.ReportMetric(float64(len(pts))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
}

// --- Figure 10: accurate join vs SI and R-tree ---

func exactJoinBench(b *testing.B, run func() join.Result, points int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := run()
		if res.Points != points {
			b.Fatal("bad run")
		}
	}
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
}

func BenchmarkFig10ExactACT4(b *testing.B) {
	f := neighborhoods(b)
	tree := act.Build(f.accurate.kvs, act.Delta4)
	exactJoinBench(b, func() join.Result {
		return join.Run(tree, f.accurate.table, f.taxiPts, f.taxiCells, f.polys, join.Options{Mode: join.Exact})
	}, len(f.taxiPts))
}

func BenchmarkFig10ExactSI10(b *testing.B) {
	f := neighborhoods(b)
	si := shapeindex.Build(f.polys, shapeindex.DefaultOptions())
	exactJoinBench(b, func() join.Result {
		return join.RunShapeIndex(si, f.taxiPts, f.taxiCells, f.polys, join.Options{})
	}, len(f.taxiPts))
}

func BenchmarkFig10ExactSI1(b *testing.B) {
	f := neighborhoods(b)
	si := shapeindex.Build(f.polys, shapeindex.FinestOptions())
	exactJoinBench(b, func() join.Result {
		return join.RunShapeIndex(si, f.taxiPts, f.taxiCells, f.polys, join.Options{})
	}, len(f.taxiPts))
}

func BenchmarkFig10ExactRTree(b *testing.B) {
	f := neighborhoods(b)
	rt := rtree.BuildFromPolygons(f.polys, 0, rtree.SplitRStar)
	exactJoinBench(b, func() join.Result {
		return join.RunRTree(rt, f.taxiPts, f.polys, join.Options{})
	}, len(f.taxiPts))
}

// --- Table 6/7: index training ---

func BenchmarkTable6Training(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := supercover.Build(f.polys, supercover.DefaultOptions())
		res := sc.Train(f.polys, f.trainCells, 0)
		if res.PointsSeen == 0 {
			b.Fatal("bad training run")
		}
	}
}

func BenchmarkTable7TrainedExactJoin(b *testing.B) {
	f := neighborhoods(b)
	sc := supercover.Build(f.polys, supercover.DefaultOptions())
	sc.Train(f.polys, f.trainCells, 0)
	kvs, table := cellindex.Encode(sc.Cells())
	tree := act.Build(kvs, act.Delta4)
	exactJoinBench(b, func() join.Result {
		return join.Run(tree, table, f.taxiPts, f.taxiCells, f.polys, join.Options{Mode: join.Exact})
	}, len(f.taxiPts))
}

// --- Figure 11: GPU raster join simulation ---

func BenchmarkFig11BRJCoarse(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rasterjoin.Run(f.polys, f.taxiPts, rasterjoin.Options{PrecisionMeters: 60, MaxTextureSize: 512})
		if res.Passes == 0 {
			b.Fatal("bad run")
		}
	}
}

func BenchmarkFig11BRJFine(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rasterjoin.Run(f.polys, f.taxiPts, rasterjoin.Options{PrecisionMeters: 15, MaxTextureSize: 512})
		if res.Passes == 0 {
			b.Fatal("bad run")
		}
	}
}

func BenchmarkFig11ARJ(b *testing.B) {
	f := neighborhoods(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := rasterjoin.Run(f.polys, f.taxiPts, rasterjoin.Options{Exact: true, MaxTextureSize: 512})
		if res.Passes == 0 {
			b.Fatal("bad run")
		}
	}
}

func BenchmarkFig11ACT4Parallel(b *testing.B) {
	f := neighborhoods(b)
	tree := act.Build(f.precise.kvs, act.Delta4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := join.Run(tree, f.precise.table, f.taxiPts, f.taxiCells, f.polys,
			join.Options{Mode: join.Approximate, Threads: 0})
		if res.Points != len(f.taxiPts) {
			b.Fatal("bad run")
		}
	}
	b.ReportMetric(float64(len(f.taxiPts))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
}

// --- Ablations: the design choices DESIGN.md calls out ---

func BenchmarkAblationACT4Baseline(b *testing.B) {
	f := neighborhoods(b)
	tree := act.BuildWithOptions(f.precise.kvs, act.BuildOptions{Delta: act.Delta4})
	b.ReportMetric(float64(tree.SizeBytes())/(1<<20), "MiB")
	probeLoop(b, tree, f.taxiCells)
}

func BenchmarkAblationACT4NoPrefixSkip(b *testing.B) {
	f := neighborhoods(b)
	tree := act.BuildWithOptions(f.precise.kvs, act.BuildOptions{Delta: act.Delta4, DisablePrefix: true})
	b.ReportMetric(float64(tree.SizeBytes())/(1<<20), "MiB")
	probeLoop(b, tree, f.taxiCells)
}

func BenchmarkAblationACT4NoBandAnchoring(b *testing.B) {
	f := neighborhoods(b)
	tree := act.BuildWithOptions(f.precise.kvs, act.BuildOptions{Delta: act.Delta4, DisableAnchoring: true})
	b.ReportMetric(float64(tree.SizeBytes())/(1<<20), "MiB")
	probeLoop(b, tree, f.taxiCells)
}

func BenchmarkAblationInlineRefsVsTable(b *testing.B) {
	// The paper inlines up to two polygon references into the tagged entry
	// to avoid a lookup-table indirection. Quantify by forcing every probe
	// through the decode path.
	f := neighborhoods(b)
	tree := act.Build(f.precise.kvs, act.Delta4)
	n := len(f.taxiCells)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		e := tree.Find(f.taxiCells[i%n])
		f.precise.table.Visit(e, func(r refs.Ref) { sink += int(r.PolygonID()) })
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}

// --- JoinBatch family: per-point loop vs the batch pipeline ---
//
// The acceptance workload of the batch engine: 100k clustered (taxi) and
// uniform points over the neighborhoods mesh, queried through the public
// API. The per-point loop is the baseline every batch variant is measured
// against; BENCH_joinbatch.json records the reference numbers.

type batchFixture struct {
	idx      *Index
	taxi     []Point
	uni      []Point
	taxiPool []Point
	uniPool  []Point
}

var (
	batchOnce sync.Once
	batchFix  *batchFixture
)

// buildTinyNYC4mIndex is the shared benchmark index shape — the tiny NYC
// neighborhoods mesh under the paper's headline 4m bound: a level-22 index
// far larger than the CPU caches, the regime where sorted, cache-reusing
// batch probing pays off over independent per-point walks. Used by both the
// batch fixture and the (mutating) snapshot fixture, which must not share
// an instance.
func buildTinyNYC4mIndex() (*Index, dataset.Spec) {
	spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
	idx, err := NewIndex(toPublicPolys(spec.Generate()), WithPrecision(4))
	if err != nil {
		panic(err)
	}
	return idx, spec
}

// toPublicPts converts generated probe points to the public API type.
func toPublicPts(gpts []geom.Point) []Point {
	out := make([]Point, len(gpts))
	for i, p := range gpts {
		out[i] = Point{Lon: p.X, Lat: p.Y}
	}
	return out
}

func joinBatchFixture(b *testing.B) *batchFixture {
	b.Helper()
	batchOnce.Do(func() {
		idx, spec := buildTinyNYC4mIndex()
		batchFix = &batchFixture{
			idx:      idx,
			taxi:     toPublicPts(dataset.TaxiPoints(spec.Bound, 100_000, 21)),
			uni:      toPublicPts(dataset.UniformPoints(spec.Bound, 100_000, 22)),
			taxiPool: toPublicPts(dataset.TaxiPoints(spec.Bound, 2_000_000, 23)),
			uniPool:  toPublicPts(dataset.UniformPoints(spec.Bound, 2_000_000, 24)),
		}
	})
	return batchFix
}

func reportBatchMpts(b *testing.B, points int) {
	b.ReportMetric(float64(points)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mpts/s")
}

// benchCoversLoop is the per-point baseline: one CoversApprox call per
// point, materializing the same [][]PolygonID a CoversBatch call returns.
func benchCoversLoop(b *testing.B, pts []Point) {
	f := joinBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([][]PolygonID, len(pts))
		for j, p := range pts {
			out[j] = f.idx.Current().CoversApprox(p)
		}
		if len(out) != len(pts) {
			b.Fatal("bad loop")
		}
	}
	reportBatchMpts(b, len(pts))
}

// benchCoversBatch measures one CoversBatch configuration.
func benchCoversBatch(b *testing.B, pts []Point, opt QueryOptions) {
	f := joinBatchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.idx.Current().CoversBatch(pts, opt)
		if len(out) != len(pts) {
			b.Fatal("bad batch")
		}
	}
	reportBatchMpts(b, len(pts))
}

func BenchmarkJoinBatchPerPointLoop(b *testing.B) {
	benchCoversLoop(b, joinBatchFixture(b).taxi)
}

func BenchmarkJoinBatchUnsorted(b *testing.B) {
	benchCoversBatch(b, joinBatchFixture(b).taxi, QueryOptions{Threads: 1})
}

func BenchmarkJoinBatchSorted(b *testing.B) {
	benchCoversBatch(b, joinBatchFixture(b).taxi, QueryOptions{Sorted: true, Threads: 1})
}

func BenchmarkJoinBatchSortedParallel(b *testing.B) {
	benchCoversBatch(b, joinBatchFixture(b).taxi, QueryOptions{Sorted: true})
}

func BenchmarkJoinBatchUniformPerPointLoop(b *testing.B) {
	benchCoversLoop(b, joinBatchFixture(b).uni)
}

func BenchmarkJoinBatchUniformSorted(b *testing.B) {
	benchCoversBatch(b, joinBatchFixture(b).uni, QueryOptions{Sorted: true, Threads: 1})
}

func BenchmarkJoinBatchCountPerPoint(b *testing.B) {
	f := joinBatchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.idx.Current().JoinCount(f.taxi, QueryOptions{Threads: 1})
		if res.Counts == nil {
			b.Fatal("bad join")
		}
	}
	reportBatchMpts(b, len(f.taxi))
}

func BenchmarkJoinBatchCountSorted(b *testing.B) {
	f := joinBatchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := f.idx.Current().JoinCount(f.taxi, QueryOptions{Sorted: true, Threads: 1})
		if res.Counts == nil {
			b.Fatal("bad join")
		}
	}
	reportBatchMpts(b, len(f.taxi))
}

// --- Public API benchmarks ---

func BenchmarkPublicAPICovers(b *testing.B) {
	idx, err := NewIndex([]Polygon{
		{Exterior: Ring{{-74, 40.7}, {-73.9, 40.7}, {-73.9, 40.8}, {-74, 40.8}}},
	}, WithPrecision(4))
	if err != nil {
		b.Fatal(err)
	}
	p := Point{Lon: -73.95, Lat: 40.75}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = idx.Current().CoversApprox(p)
	}
}

// --- JoinBatch streaming variant: fresh 100k-point windows per iteration ---
//
// Reusing one point set across b.N iterations lets every trie path go warm,
// which understates what batching buys a server that sees new points in
// every request. These variants slide a 100k window over a 2M-point pool so
// each iteration probes fresh data.

func slideWindow(pool []Point, i int) []Point {
	const w = 100_000
	nwin := len(pool)/w - 1
	off := (i % nwin) * w
	return pool[off : off+w]
}

func benchStreamLoop(b *testing.B, pool []Point) {
	f := joinBatchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := slideWindow(pool, i)
		out := make([][]PolygonID, len(pts))
		for j, p := range pts {
			out[j] = f.idx.Current().CoversApprox(p)
		}
		if len(out) != len(pts) {
			b.Fatal("bad loop")
		}
	}
	reportBatchMpts(b, 100_000)
}

func benchStreamBatch(b *testing.B, pool []Point, opt QueryOptions) {
	f := joinBatchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := f.idx.Current().CoversBatch(slideWindow(pool, i), opt)
		if len(out) != 100_000 {
			b.Fatal("bad batch")
		}
	}
	reportBatchMpts(b, 100_000)
}

func BenchmarkJoinBatchStreamLoopTaxi(b *testing.B) {
	benchStreamLoop(b, joinBatchFixture(b).taxiPool)
}

func BenchmarkJoinBatchStreamUnsortedTaxi(b *testing.B) {
	benchStreamBatch(b, joinBatchFixture(b).taxiPool, QueryOptions{Threads: 1})
}

func BenchmarkJoinBatchStreamSortedTaxi(b *testing.B) {
	benchStreamBatch(b, joinBatchFixture(b).taxiPool, QueryOptions{Sorted: true, Threads: 1})
}

func BenchmarkJoinBatchStreamLoopUniform(b *testing.B) {
	benchStreamLoop(b, joinBatchFixture(b).uniPool)
}

func BenchmarkJoinBatchStreamUnsortedUniform(b *testing.B) {
	benchStreamBatch(b, joinBatchFixture(b).uniPool, QueryOptions{Threads: 1})
}

func BenchmarkJoinBatchStreamSortedUniform(b *testing.B) {
	benchStreamBatch(b, joinBatchFixture(b).uniPool, QueryOptions{Sorted: true, Threads: 1})
}
