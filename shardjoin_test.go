package actjoin

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"actjoin/internal/cellid"
)

// scatteredSquares returns n small squares strewn over a 1°x1° area with
// wide uncovered gaps between them, so the covering is full of false-hit
// ranges — including ones that run up to (and, in a shard's own trie, past)
// the router's bounds.
func scatteredSquares(rng *rand.Rand, n int) []Polygon {
	out := make([]Polygon, n)
	for i := range out {
		x := -74 + rng.Float64()*0.95
		y := 40 + rng.Float64()*0.95
		s := 0.002 + rng.Float64()*0.03
		out[i] = Polygon{Exterior: Ring{
			{Lon: x, Lat: y}, {Lon: x + s, Lat: y},
			{Lon: x + s, Lat: y + s}, {Lon: x, Lat: y + s},
		}}
	}
	return out
}

// boundaryPoints packs points on both sides of every router bound: random
// points inside the cells that end just below the bound and start at it,
// at every level, and the centers of the leaves right next to it. Sorted, they make one stream
// that crosses each bound with no gap, so a validity range resolved on one
// side and not clamped to its shard swallows probes of the other.
func boundaryPoints(rng *rand.Rand, bounds []cellid.CellID) []Point {
	var out []Point
	add := func(c cellid.CellID, n int) {
		r := c.Bound()
		for i := 0; i < n; i++ {
			out = append(out, Point{
				Lon: r.Lo.X + rng.Float64()*(r.Hi.X-r.Lo.X),
				Lat: r.Lo.Y + rng.Float64()*(r.Hi.Y-r.Lo.Y),
			})
		}
	}
	for _, b := range bounds {
		below := b - 2 // the last leaf before the bound
		for level := 1; level <= cellid.MaxLevel; level++ {
			add(below.Parent(level), 24)
			add(b.Parent(level), 24)
		}
		for k := 0; k < 16; k++ {
			for _, leaf := range []cellid.CellID{b + cellid.CellID(2*k), below - cellid.CellID(2*k)} {
				c := leaf.Center()
				out = append(out, Point{Lon: c.X, Lat: c.Y})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestShardedBatchMatchesUnsharded holds the sharded batch queries to the
// unsharded index and to per-point Covers on streams packed around the
// shard bounds: every shard count, thread count, sort mode and exactness,
// at batch sizes below and above the single-worker cutoff.
func TestShardedBatchMatchesUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	polys := scatteredSquares(rng, 70)
	plain, err := NewIndex(polys)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	ps := plain.Current()
	spanning := 0
	for _, shards := range []int{1, 2, 3, 6} {
		six, err := NewShardedIndex(polys, shards)
		if err != nil {
			t.Fatal(err)
		}
		ss := six.Current()
		if len(ss.router.bounds) != shards-1 {
			t.Fatalf("shards=%d: router has %d bounds", shards, len(ss.router.bounds))
		}
		for i, b := range ss.router.bounds {
			// A false-hit range of the shard below the bound that reaches
			// past it: only the clamp to the shard's range keeps it from
			// swallowing the next shard's probes.
			if _, _, hi := ss.shards[i].tree.FindRange(b - 2); hi >= b {
				spanning++
			}
		}
		pts := boundaryPoints(rng, ss.router.bounds)
		for i := 0; i < 500; i++ {
			pts = append(pts, Point{Lon: -74 + rng.Float64(), Lat: 40 + rng.Float64()})
		}
		for _, exact := range []bool{false, true} {
			want := make([][]PolygonID, len(pts))
			for i, p := range pts {
				if exact {
					want[i] = ps.Covers(p)
				} else {
					want[i] = ps.CoversApprox(p)
				}
				if got := ss.query(p, exact); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("shards=%d exact=%v: point %v: sharded per-point query %v, unsharded %v",
						shards, exact, p, got, want[i])
				}
			}
			for _, n := range []int{40, len(pts)} {
				wantCounts := make([]int64, ps.NumPolygons())
				for _, ids := range want[:n] {
					for _, id := range ids {
						wantCounts[id]++
					}
				}
				for _, threads := range []int{0, 1, 2, 3} {
					for _, sorted := range []bool{false, true} {
						ctx := fmt.Sprintf("shards=%d exact=%v n=%d threads=%d sorted=%v", shards, exact, n, threads, sorted)
						opt := QueryOptions{Exact: exact, Sorted: sorted, Threads: threads}
						got := ss.CoversBatch(pts[:n], opt)
						for i := range got {
							if !reflect.DeepEqual(got[i], want[i]) {
								t.Fatalf("%s: point %d %v: CoversBatch %v, unsharded Covers %v",
									ctx, i, pts[i], got[i], want[i])
							}
						}
						if res := ss.JoinCount(pts[:n], opt); !reflect.DeepEqual(res.Counts, wantCounts) {
							t.Fatalf("%s: JoinCount %v, want %v", ctx, res.Counts, wantCounts)
						}
						if res := ps.JoinCount(pts[:n], opt); !reflect.DeepEqual(res.Counts, wantCounts) {
							t.Fatalf("%s: unsharded JoinCount %v, want %v", ctx, res.Counts, wantCounts)
						}
					}
				}
			}
		}
		six.Close()
	}
	if spanning == 0 {
		t.Error("no shard's false-hit range crosses a bound: the geometry no longer tests the clamp")
	}
}

// TestJoinCountAllocsConstant is the batch join's allocation guard: once
// the pooled scratch is warm, a two-shard JoinCount allocates the returned
// Counts plus one closure per worker goroutine it starts, a small number
// that does not grow with the batch. Both batches share their two extreme
// points, so their key ranges — and with them the number of sort passes —
// are equal.
func TestJoinCountAllocsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	rng := rand.New(rand.NewSource(6))
	six, err := NewShardedIndex(scatteredSquares(rng, 70), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer six.Close()
	if six.NumShards() != 2 {
		t.Fatalf("got %d shards, want 2", six.NumShards())
	}
	s := six.Current()
	pts := []Point{{Lon: -74, Lat: 40}, {Lon: -73, Lat: 41}}
	for len(pts) < 1<<16 {
		pts = append(pts, Point{Lon: -74 + rng.Float64(), Lat: 40 + rng.Float64()})
	}
	opt := QueryOptions{Exact: true, Sorted: true, Threads: 2}
	var allocs [2]float64
	for i, n := range []int{1 << 12, 1 << 16} {
		batch := pts[:n]
		s.JoinCount(batch, opt) // warm the pool at this size
		allocs[i] = testing.AllocsPerRun(20, func() { s.JoinCount(batch, opt) })
	}
	t.Logf("allocations per JoinCount: %v at 2^12 points, %v at 2^16", allocs[0], allocs[1])
	if allocs[0] != allocs[1] {
		t.Errorf("allocations grow with the batch: %v at 2^12 points, %v at 2^16", allocs[0], allocs[1])
	}
	if allocs[1] > 4 {
		t.Errorf("%v allocations per JoinCount, want at most 4", allocs[1])
	}
}
