package cellid

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"actjoin/internal/geom"
)

// checkBatch runs FromPointsBatch over pts at every level and compares each
// key with FromPoint(p)>>drop, so the four-way body and every tail length
// are held to the single-point encoder bit for bit.
func checkBatch(t *testing.T, pts []geom.Point) {
	t.Helper()
	keys := make([]uint64, len(pts))
	for level := 0; level <= MaxLevel; level++ {
		FromPointsBatch(keys, pts, level)
		drop := uint(2*(MaxLevel-level) + 1)
		for i, p := range pts {
			leaf := FromPoint(p)
			if want := uint64(leaf) >> drop; keys[i] != want {
				t.Fatalf("level %d: point %d %v: key %#x, want FromPoint>>%d = %#x",
					level, i, p, keys[i], drop, want)
			}
			if level == MaxLevel && CellID(keys[i]<<1|1) != leaf {
				t.Fatalf("point %v: full-depth key does not rebuild the leaf %v", p, leaf)
			}
		}
	}
}

func TestFromPointsBatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := make([]geom.Point, 1000)
	for i := range pts {
		pts[i] = geom.Point{X: rng.Float64()*360 - 180, Y: rng.Float64()*180 - 90}
	}
	checkBatch(t, pts)
}

func TestFromPointsBatchEdgesAndClamps(t *testing.T) {
	var pts []geom.Point
	// Face edges: every column and row boundary, the world corners, and
	// the nearest representable neighbours on both sides of each.
	for _, x := range []float64{-180, -60, 60, 180} {
		for _, y := range []float64{-90, 0, 90} {
			for _, dx := range []float64{math.Inf(-1), 0, math.Inf(1)} {
				for _, dy := range []float64{math.Inf(-1), 0, math.Inf(1)} {
					pts = append(pts, geom.Point{X: math.Nextafter(x, x+dx), Y: math.Nextafter(y, y+dy)})
				}
			}
		}
	}
	// Out-of-range coordinates clamp into the world, as FromPoint does.
	pts = append(pts,
		geom.Point{X: -200, Y: 10}, geom.Point{X: 200, Y: 10},
		geom.Point{X: 10, Y: -100}, geom.Point{X: 10, Y: 100},
		geom.Point{X: -1e300, Y: 1e300}, geom.Point{X: 1e300, Y: -1e300},
		geom.Point{X: math.Inf(1), Y: math.Inf(-1)},
		geom.Point{X: -73.98, Y: 40.71}, geom.Point{X: 0, Y: 0},
	)
	checkBatch(t, pts)
}

func TestFromPointsBatchTailLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 9; n++ { // every n mod 4, with and without a 4-way body
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Point{X: -74 + rng.Float64()*0.3, Y: 40.6 + rng.Float64()*0.3}
		}
		checkBatch(t, pts)
	}
}

// FuzzFromPointsBatch holds the batch kernel to FromPoint on arbitrary
// coordinates, placing the fuzzed point in the four-way body and in the
// scalar tail.
func FuzzFromPointsBatch(f *testing.F) {
	f.Add(-73.98, 40.71, uint8(22))
	f.Add(-60.0, 0.0, uint8(30))
	f.Add(180.0, -90.0, uint8(0))
	f.Add(math.Inf(-1), math.NaN(), uint8(5))
	f.Fuzz(func(t *testing.T, x, y float64, l uint8) {
		level := int(l) % (MaxLevel + 1)
		p := geom.Point{X: x, Y: y}
		pts := []geom.Point{{X: 1, Y: 1}, p, {X: -100, Y: -45}, {X: 12, Y: 60}, p}
		keys := make([]uint64, len(pts))
		FromPointsBatch(keys, pts, level)
		drop := uint(2*(MaxLevel-level) + 1)
		for i, q := range pts {
			if want := uint64(FromPoint(q)) >> drop; keys[i] != want {
				t.Fatalf("level %d: %v: key %#x, want %#x", level, q, keys[i], want)
			}
		}
	})
}

func BenchmarkFromPointsBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 4096)
	for i := range pts {
		pts[i] = geom.Point{X: -74 + rng.Float64()*0.3, Y: 40.6 + rng.Float64()*0.3}
	}
	keys := make([]uint64, len(pts))
	for _, level := range []int{22, MaxLevel} {
		b.Run("level="+strconv.Itoa(level), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FromPointsBatch(keys, pts, level)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/pt")
		})
	}
	b.Run("FromPoint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k, p := range pts {
				keys[k] = uint64(FromPoint(p))
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pts)), "ns/pt")
	})
}
