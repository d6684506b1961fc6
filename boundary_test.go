package actjoin

import (
	"fmt"
	"testing"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// TestSharedBoundaryBelongsToOnePolygon pins the boundary semantics of the
// exact queries on a tessellation: the ray-crossing test is half-open (see
// geom.Polygon), so every point of a boundary shared by two or more tiles —
// shared vertices and points along shared edges — belongs to exactly one
// tile. It probes every shared vertex of a jittered dataset.Mesh and the
// midpoint of every shared edge segment, at 1 and 2 shards, through Covers
// and CoversBatch. Points on the tiling's outer boundary are skipped: the
// half-open rule assigns the top and right sides to no tile.
func TestSharedBoundaryBelongsToOnePolygon(t *testing.T) {
	bound := geom.Rect{Lo: geom.Point{X: -74.02, Y: 40.70}, Hi: geom.Point{X: -73.93, Y: 40.78}}
	mesh := dataset.Mesh(dataset.MeshOptions{
		Rows: 4, Cols: 5, Bound: bound, EdgeSubdiv: 3, Jitter: 0.25, Roughness: 0.1, Seed: 11,
	})
	polys := make([]Polygon, len(mesh))
	for i, gp := range mesh {
		ring := make(Ring, len(gp.Rings[0]))
		for k, v := range gp.Rings[0] {
			ring[k] = Point{Lon: v.X, Lat: v.Y}
		}
		polys[i] = Polygon{Exterior: ring}
	}
	onOuter := func(p geom.Point) bool {
		return p.X == bound.Lo.X || p.X == bound.Hi.X || p.Y == bound.Lo.Y || p.Y == bound.Hi.Y
	}
	// Probes in first-seen order, each with a label for failure messages.
	var probes []Point
	var labels []string
	seen := make(map[geom.Point]bool)
	add := func(p geom.Point, label string) {
		if onOuter(p) || seen[p] {
			return
		}
		seen[p] = true
		probes = append(probes, Point{Lon: p.X, Lat: p.Y})
		labels = append(labels, label)
	}
	for pi, gp := range mesh {
		ring := gp.Rings[0]
		for k, v := range ring {
			add(v, fmt.Sprintf("vertex %d of polygon %d", k, pi))
		}
	}
	vertices := len(probes)
	for pi, gp := range mesh {
		ring := gp.Rings[0]
		for k := range ring {
			a, b := ring[k], ring[(k+1)%len(ring)]
			mid := geom.Point{X: a.X + (b.X-a.X)/2, Y: a.Y + (b.Y-a.Y)/2}
			add(mid, fmt.Sprintf("midpoint of edge %d of polygon %d", k, pi))
		}
	}
	if vertices < 100 || len(probes)-vertices < 100 {
		t.Fatalf("fixture too small: %d shared vertices, %d shared-edge points", vertices, len(probes)-vertices)
	}

	for _, shards := range []int{1, 2} {
		ix, err := NewShardedIndex(polys, shards, WithCoveringBudget(16, 32))
		if err != nil {
			t.Fatal(err)
		}
		if ix.NumShards() != shards {
			t.Fatalf("shards=%d: index has %d shards", shards, ix.NumShards())
		}
		s := ix.Current()
		batch := s.CoversBatch(probes, QueryOptions{Exact: true, Sorted: true, Threads: 2})
		bad := 0
		for i, p := range probes {
			got := s.Covers(p)
			if len(got) != 1 {
				bad++
				if bad <= 10 {
					t.Errorf("shards=%d: %s (%v, %v) is covered by %d polygons %v, want exactly 1",
						shards, labels[i], p.Lon, p.Lat, len(got), got)
				}
			}
			if fmt.Sprint(batch[i]) != fmt.Sprint(got) {
				t.Errorf("shards=%d: %s: CoversBatch %v, Covers %v", shards, labels[i], batch[i], got)
			}
		}
		if bad > 0 {
			t.Errorf("shards=%d: %d of %d shared-boundary probes not covered by exactly one polygon", shards, bad, len(probes))
		}
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
