package actjoin

import (
	"math/rand"
	"testing"
)

// square returns a simple square polygon.
func square(lon, lat, size float64) Polygon {
	return Polygon{Exterior: Ring{
		{lon, lat}, {lon + size, lat}, {lon + size, lat + size}, {lon, lat + size},
	}}
}

func testPolygons() []Polygon {
	return []Polygon{
		square(-74.00, 40.70, 0.03),
		square(-73.97, 40.70, 0.03),
		{
			Exterior: Ring{{-73.99, 40.74}, {-73.94, 40.74}, {-73.94, 40.79}, {-73.99, 40.79}},
			Holes:    []Ring{{{-73.97, 40.76}, {-73.96, 40.76}, {-73.96, 40.77}, {-73.97, 40.77}}},
		},
	}
}

func TestNewIndexValidation(t *testing.T) {
	if _, err := NewIndex(nil); err == nil {
		t.Error("empty polygon set must fail")
	}
	if _, err := NewIndex([]Polygon{{Exterior: Ring{{0, 0}, {1, 1}}}}); err == nil {
		t.Error("2-vertex ring must fail")
	}
	if _, err := NewIndex([]Polygon{square(0, 0, 1)}, WithPrecision(-3)); err == nil {
		t.Error("negative precision must fail")
	}
	if _, err := NewIndex([]Polygon{square(0, 0, 1)}, WithGranularity(3)); err == nil {
		t.Error("granularity 3 must fail")
	}
	if _, err := NewIndex([]Polygon{square(500, 0, 1)}); err == nil {
		t.Error("out-of-range longitude must fail")
	}
	if _, err := NewIndex([]Polygon{square(0, 0, 1)}, WithCoveringBudget(1, 0)); err == nil {
		t.Error("absurd covering budget must fail")
	}
}

func TestCoversExact(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p    Point
		want []PolygonID
	}{
		{Point{-73.985, 40.715}, []PolygonID{0}},
		{Point{-73.955, 40.715}, []PolygonID{1}},
		{Point{-73.96, 40.75}, []PolygonID{2}},
		{Point{-73.965, 40.765}, nil}, // in the hole
		{Point{-73.90, 40.60}, nil},   // outside everything
	}
	for _, c := range cases {
		got := idx.Current().Covers(c.p)
		if len(got) != len(c.want) {
			t.Errorf("Covers(%v) = %v, want %v", c.p, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Covers(%v) = %v, want %v", c.p, got, c.want)
			}
		}
	}
}

func TestPrecisionBoundMode(t *testing.T) {
	idx, err := NewIndex(testPolygons(), WithPrecision(15))
	if err != nil {
		t.Fatal(err)
	}
	if idx.Precision() != 15 {
		t.Errorf("Precision = %v", idx.Precision())
	}
	st := idx.Current().Stats()
	if st.PrecisionLevel == 0 {
		t.Error("precision level must be set")
	}
	// Approximate queries must agree with exact ones for points well inside
	// or well outside (here: > 15m from any boundary).
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		p := Point{-74.01 + rng.Float64()*0.09, 40.69 + rng.Float64()*0.11}
		exact := idx.Current().Covers(p)
		approx := idx.Current().CoversApprox(p)
		// approx is a superset of exact.
		seen := map[PolygonID]bool{}
		for _, id := range approx {
			seen[id] = true
		}
		for _, id := range exact {
			if !seen[id] {
				t.Fatalf("approx missed exact result %d at %v", id, p)
			}
		}
	}
}

func TestGranularities(t *testing.T) {
	for _, delta := range []int{1, 2, 4} {
		idx, err := NewIndex(testPolygons(), WithGranularity(delta))
		if err != nil {
			t.Fatal(err)
		}
		if got := idx.Current().Stats().Granularity; got != delta {
			t.Errorf("Granularity = %d, want %d", got, delta)
		}
		if got := idx.Current().Covers(Point{-73.985, 40.715}); len(got) != 1 || got[0] != 0 {
			t.Errorf("delta %d: Covers = %v", delta, got)
		}
	}
}

func TestJoinCounts(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var pts []Point
	for i := 0; i < 20000; i++ {
		pts = append(pts, Point{-74.01 + rng.Float64()*0.09, 40.69 + rng.Float64()*0.11})
	}
	exact := idx.Current().JoinCount(pts, QueryOptions{Exact: true, Threads: 1})
	multi := idx.Current().JoinCount(pts, QueryOptions{Exact: true, Threads: 4})
	for i := range exact.Counts {
		if exact.Counts[i] != multi.Counts[i] {
			t.Errorf("thread mismatch for polygon %d", i)
		}
	}
	// Oracle.
	want := make([]int64, 3)
	for _, p := range pts {
		for _, id := range idx.Current().Covers(p) {
			want[id]++
		}
	}
	for i := range want {
		if exact.Counts[i] != want[i] {
			t.Errorf("polygon %d: join count %d, oracle %d", i, exact.Counts[i], want[i])
		}
	}
	if exact.ThroughputMpts <= 0 || exact.Duration <= 0 {
		t.Error("metrics must be populated")
	}
}

func TestTrainReducesPIPTests(t *testing.T) {
	polys := testPolygons()
	mk := func() *Index {
		idx, err := NewIndex(polys)
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	rng := rand.New(rand.NewSource(3))
	var train, probe []Point
	for i := 0; i < 4000; i++ {
		// Concentrate near the shared boundary of polygons 0 and 1.
		train = append(train, Point{-73.97 + (rng.Float64()-0.5)*0.002, 40.70 + rng.Float64()*0.03})
		probe = append(probe, Point{-73.97 + (rng.Float64()-0.5)*0.002, 40.70 + rng.Float64()*0.03})
	}
	plain := mk()
	before := plain.Current().JoinCount(probe, QueryOptions{Exact: true, Threads: 1})

	trained := mk()
	st := trained.Train(train, 0)
	if st.CellsSplit == 0 {
		t.Fatal("training must split boundary cells")
	}
	after := trained.Current().JoinCount(probe, QueryOptions{Exact: true, Threads: 1})
	if after.PIPTests >= before.PIPTests {
		t.Errorf("training must reduce PIP tests: %d -> %d", before.PIPTests, after.PIPTests)
	}
	// Results stay exact.
	for i := range before.Counts {
		if before.Counts[i] != after.Counts[i] {
			t.Errorf("training changed result for polygon %d", i)
		}
	}
}

func TestTrainBudget(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	budget := idx.Current().Stats().NumCells + 8
	rng := rand.New(rand.NewSource(4))
	var train []Point
	for i := 0; i < 5000; i++ {
		train = append(train, Point{-73.97 + (rng.Float64()-0.5)*0.001, 40.70 + rng.Float64()*0.03})
	}
	st := idx.Train(train, budget)
	if !st.BudgetReached {
		t.Error("budget must be reached")
	}
	if st.NumCells > budget+3 {
		t.Errorf("cells %d exceed budget %d", st.NumCells, budget)
	}
}

func TestStats(t *testing.T) {
	idx, err := NewIndex(testPolygons(), WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Current().Stats()
	if st.NumPolygons != 3 || st.NumCells == 0 || st.NumTrieNodes == 0 || st.TrieSizeBytes == 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestCoveringBudgetOption(t *testing.T) {
	small, err := NewIndex(testPolygons(), WithCoveringBudget(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	large, err := NewIndex(testPolygons(), WithCoveringBudget(256, 512))
	if err != nil {
		t.Fatal(err)
	}
	if small.Current().Stats().NumCells >= large.Current().Stats().NumCells {
		t.Errorf("larger budget must yield more cells: %d vs %d",
			small.Current().Stats().NumCells, large.Current().Stats().NumCells)
	}
}

// batchTestPoints draws a mix of clustered and uniform points over the test
// polygon area, including points outside every polygon.
func batchTestPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		if i%3 == 0 { // clustered runs near a polygon corner
			pts[i] = Point{-73.985 + rng.Float64()*0.002, 40.712 + rng.Float64()*0.002}
		} else {
			pts[i] = Point{-74.02 + rng.Float64()*0.12, 40.68 + rng.Float64()*0.13}
		}
	}
	return pts
}

func TestCoversBatchMatchesPerPointLoop(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"exact-only", nil},
		{"precision", []Option{WithPrecision(30)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			idx, err := NewIndex(testPolygons(), tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			pts := batchTestPoints(20000, 7)
			for _, opt := range []QueryOptions{
				{},
				{Sorted: true},
				{Exact: true, Sorted: true},
				{Exact: true, Threads: 1},
				{Sorted: true, Threads: 3},
			} {
				got := idx.Current().CoversBatch(pts, opt)
				if len(got) != len(pts) {
					t.Fatalf("%+v: %d results for %d points", opt, len(got), len(pts))
				}
				for i, p := range pts {
					var want []PolygonID
					if opt.Exact {
						want = idx.Current().Covers(p)
					} else {
						want = idx.Current().CoversApprox(p)
					}
					if len(got[i]) != len(want) {
						t.Fatalf("%+v: point %d: got %v, want %v", opt, i, got[i], want)
					}
					for k := range want {
						if got[i][k] != want[k] {
							t.Fatalf("%+v: point %d: got %v, want %v", opt, i, got[i], want)
						}
					}
				}
			}
		})
	}
}

func TestJoinCountMatchesJoin(t *testing.T) {
	idx, err := NewIndex(testPolygons(), WithPrecision(30))
	if err != nil {
		t.Fatal(err)
	}
	pts := batchTestPoints(20000, 8)
	for _, exact := range []bool{false, true} {
		want := idx.Current().JoinCount(pts, QueryOptions{Exact: exact, Threads: 1})
		for _, opt := range []QueryOptions{
			{Exact: exact},
			{Exact: exact, Sorted: true},
			{Exact: exact, Sorted: true, Threads: 4},
		} {
			got := idx.Current().JoinCount(pts, opt)
			for i := range want.Counts {
				if got.Counts[i] != want.Counts[i] {
					t.Errorf("exact=%v %+v: polygon %d count %d, want %d",
						exact, opt, i, got.Counts[i], want.Counts[i])
				}
			}
			if got.Duration <= 0 || got.ThroughputMpts <= 0 {
				t.Errorf("exact=%v %+v: metrics must be populated", exact, opt)
			}
			if opt.Sorted && got.CacheHits == 0 {
				t.Errorf("exact=%v %+v: sorted batch reported no cache hits", exact, opt)
			}
		}
	}
}

func TestCoversBatchEmpty(t *testing.T) {
	idx, err := NewIndex(testPolygons())
	if err != nil {
		t.Fatal(err)
	}
	if out := idx.Current().CoversBatch(nil, QueryOptions{Sorted: true}); len(out) != 0 {
		t.Errorf("empty batch returned %d results", len(out))
	}
	res := idx.Current().JoinCount(nil, QueryOptions{})
	if len(res.Counts) != len(testPolygons()) {
		t.Errorf("empty join counts sized %d", len(res.Counts))
	}
}
