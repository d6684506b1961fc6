// Quickstart: build an index over three zones, query single points through
// a snapshot, run a small bulk join, and apply a live update without
// blocking readers. Demonstrates the minimal API surface.
package main

import (
	"fmt"
	"log"

	"actjoin"
)

// main pins one snapshot for its queries and then deliberately takes a
// second, fresh one: showing that the old view keeps answering while the
// new view sees the added zone is the point of the demo.
//
//act:refresh
func main() {
	// Three city zones: two adjacent squares and one with a hole (a park
	// with a lake, say).
	zones := []actjoin.Polygon{
		{Exterior: actjoin.Ring{
			{Lon: -74.00, Lat: 40.70}, {Lon: -73.97, Lat: 40.70},
			{Lon: -73.97, Lat: 40.73}, {Lon: -74.00, Lat: 40.73},
		}},
		{Exterior: actjoin.Ring{
			{Lon: -73.97, Lat: 40.70}, {Lon: -73.94, Lat: 40.70},
			{Lon: -73.94, Lat: 40.73}, {Lon: -73.97, Lat: 40.73},
		}},
		{
			Exterior: actjoin.Ring{
				{Lon: -73.99, Lat: 40.74}, {Lon: -73.94, Lat: 40.74},
				{Lon: -73.94, Lat: 40.79}, {Lon: -73.99, Lat: 40.79},
			},
			Holes: []actjoin.Ring{{
				{Lon: -73.97, Lat: 40.76}, {Lon: -73.96, Lat: 40.76},
				{Lon: -73.96, Lat: 40.77}, {Lon: -73.97, Lat: 40.77},
			}},
		},
	}

	// A 4-meter precision bound: approximate queries never run geometric
	// tests, and any false positive is within 4m of the reported zone.
	idx, err := actjoin.NewIndex(zones, actjoin.WithPrecision(4))
	if err != nil {
		log.Fatal(err)
	}

	// All reads go through an immutable snapshot: pin it once, then run
	// lock-free queries against a consistent view.
	snap := idx.Current()
	st := snap.Stats()
	fmt.Printf("index: %d zones, %d cells, %d trie nodes, %.1f KiB\n",
		st.NumPolygons, st.NumCells, st.NumTrieNodes,
		float64(st.TrieSizeBytes+st.TableSizeBytes)/1024)

	// Point queries.
	for _, p := range []actjoin.Point{
		{Lon: -73.985, Lat: 40.715}, // inside zone 0
		{Lon: -73.955, Lat: 40.715}, // inside zone 1
		{Lon: -73.965, Lat: 40.765}, // in the lake (zone 2's hole)
		{Lon: -73.90, Lat: 40.60},   // outside everything
	} {
		fmt.Printf("point (%.3f, %.3f): approx=%v exact=%v\n",
			p.Lon, p.Lat, snap.CoversApprox(p), snap.Covers(p))
	}

	// Bulk join: count points per zone.
	var pts []actjoin.Point
	for i := 0; i < 100000; i++ {
		pts = append(pts, actjoin.Point{
			Lon: -74.01 + float64(i%331)*0.0002,
			Lat: 40.69 + float64(i%479)*0.0002,
		})
	}
	res := snap.JoinCount(pts, actjoin.QueryOptions{Sorted: true})
	fmt.Printf("joined %d points in %v (%.1f M points/s), counts: %v, PIP tests: %d\n",
		len(pts), res.Duration.Round(1000), res.ThroughputMpts, res.Counts, res.PIPTests)

	// Live update: a new zone appears. The mutation builds and publishes a
	// new snapshot; the one held above keeps answering with the old view.
	newZone := actjoin.Polygon{Exterior: actjoin.Ring{
		{Lon: -73.93, Lat: 40.70}, {Lon: -73.90, Lat: 40.70},
		{Lon: -73.90, Lat: 40.73}, {Lon: -73.93, Lat: 40.73},
	}}
	id, err := idx.Add(newZone)
	if err != nil {
		log.Fatal(err)
	}
	inNew := actjoin.Point{Lon: -73.915, Lat: 40.715}
	fmt.Printf("added zone %d: old snapshot sees %v, fresh snapshot sees %v\n",
		id, snap.CoversApprox(inNew), idx.Current().CoversApprox(inNew))
}
