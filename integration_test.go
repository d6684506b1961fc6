package actjoin

import (
	"testing"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
	"actjoin/internal/join"
	"actjoin/internal/rasterjoin"
	"actjoin/internal/rtree"
	"actjoin/internal/shapeindex"
)

// Integration tests: every exact join path in the repository — the public
// API (ACT), the S2ShapeIndex equivalent, both R-tree variants, the
// brute-force oracle and the simulated Accurate Raster Join — must agree
// bit-for-bit on a realistic generated city, and the approximate paths must
// bound their error.

func toPublicPolys(polys []*geom.Polygon) []Polygon {
	out := make([]Polygon, len(polys))
	for i, p := range polys {
		var pub Polygon
		for ri, ring := range p.Rings {
			r := make(Ring, len(ring))
			for j, v := range ring {
				r[j] = Point{Lon: v.X, Lat: v.Y}
			}
			if ri == 0 {
				pub.Exterior = r
			} else {
				pub.Holes = append(pub.Holes, r)
			}
		}
		out[i] = pub
	}
	return out
}

func TestAllExactPathsAgree(t *testing.T) {
	spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
	polys := spec.Generate()
	pts := dataset.TaxiPoints(spec.Bound, 30000, 77)
	cells := dataset.ToCellIDs(pts)
	oracle := join.BruteForce(pts, polys)

	// Public API (ACT + exact join).
	idx, err := NewIndex(toPublicPolys(polys))
	if err != nil {
		t.Fatal(err)
	}
	pubPts := make([]Point, len(pts))
	for i, p := range pts {
		pubPts[i] = Point{Lon: p.X, Lat: p.Y}
	}
	pub := idx.Current().JoinCount(pubPts, QueryOptions{Exact: true, Threads: 2})
	for pid := range polys {
		if pub.Counts[pid] != oracle[pid] {
			t.Errorf("public API: polygon %d count %d, oracle %d", pid, pub.Counts[pid], oracle[pid])
		}
	}

	// Shape index, both configurations.
	for _, opt := range []shapeindex.Options{shapeindex.DefaultOptions(), shapeindex.FinestOptions()} {
		si := shapeindex.Build(polys, opt)
		res := join.RunShapeIndex(si, pts, cells, polys, join.Options{Threads: 2})
		for pid := range polys {
			if res.Counts[pid] != oracle[pid] {
				t.Errorf("SI(%d): polygon %d count %d, oracle %d",
					opt.MaxEdgesPerCell, pid, res.Counts[pid], oracle[pid])
			}
		}
	}

	// R-tree, both split strategies.
	for _, split := range []rtree.SplitStrategy{rtree.SplitRStar, rtree.SplitQuadratic} {
		rt := rtree.BuildFromPolygons(polys, 0, split)
		res := join.RunRTree(rt, pts, polys, join.Options{Threads: 2})
		for pid := range polys {
			if res.Counts[pid] != oracle[pid] {
				t.Errorf("rtree(%v): polygon %d count %d, oracle %d", split, pid, res.Counts[pid], oracle[pid])
			}
		}
	}

	// Accurate Raster Join simulation.
	arj := rasterjoin.Run(polys, pts, rasterjoin.Options{Exact: true, MaxTextureSize: 1024})
	for pid := range polys {
		if arj.Counts[pid] != oracle[pid] {
			t.Errorf("ARJ: polygon %d count %d, oracle %d", pid, arj.Counts[pid], oracle[pid])
		}
	}
}

func TestApproximatePathsBounded(t *testing.T) {
	spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
	polys := spec.Generate()
	pts := dataset.TaxiPoints(spec.Bound, 20000, 78)
	oracle := join.BruteForce(pts, polys)

	const precision = 60.0

	// Public API approximate join.
	idx, err := NewIndex(toPublicPolys(polys), WithPrecision(precision))
	if err != nil {
		t.Fatal(err)
	}
	pubPts := make([]Point, len(pts))
	for i, p := range pts {
		pubPts[i] = Point{Lon: p.X, Lat: p.Y}
	}
	approx := idx.Current().JoinCount(pubPts, QueryOptions{Threads: 2})
	if approx.PIPTests != 0 {
		t.Error("approximate join must not PIP-test")
	}
	var extraACT int64
	for pid := range polys {
		if approx.Counts[pid] < oracle[pid] {
			t.Errorf("ACT approx: false negatives for polygon %d", pid)
		}
		extraACT += approx.Counts[pid] - oracle[pid]
	}

	// BRJ at the same precision.
	brj := rasterjoin.Run(polys, pts, rasterjoin.Options{PrecisionMeters: precision, MaxTextureSize: 1024})
	var extraBRJ int64
	for pid := range polys {
		if brj.Counts[pid] < oracle[pid] {
			t.Errorf("BRJ: false negatives for polygon %d", pid)
		}
		extraBRJ += brj.Counts[pid] - oracle[pid]
	}

	var exactTotal int64
	for _, c := range oracle {
		exactTotal += c
	}
	// Both approximations must stay close to exact (same order): extra
	// pairs under 5% of the result on this workload.
	if float64(extraACT) > 0.05*float64(exactTotal) {
		t.Errorf("ACT approx adds %d of %d pairs", extraACT, exactTotal)
	}
	if float64(extraBRJ) > 0.05*float64(exactTotal) {
		t.Errorf("BRJ adds %d of %d pairs", extraBRJ, exactTotal)
	}
}

func TestTrainedIndexStillAgrees(t *testing.T) {
	spec := dataset.NYCNeighborhoods(dataset.ScaleTiny)
	polys := spec.Generate()
	pts := dataset.TaxiPoints(spec.Bound, 20000, 79)
	oracle := join.BruteForce(pts, polys)

	idx, err := NewIndex(toPublicPolys(polys))
	if err != nil {
		t.Fatal(err)
	}
	trainRaw := dataset.TaxiPoints(spec.Bound, 20000, 80)
	train := make([]Point, len(trainRaw))
	for i, p := range trainRaw {
		train[i] = Point{Lon: p.X, Lat: p.Y}
	}
	idx.Train(train, 0)

	pubPts := make([]Point, len(pts))
	for i, p := range pts {
		pubPts[i] = Point{Lon: p.X, Lat: p.Y}
	}
	res := idx.Current().JoinCount(pubPts, QueryOptions{Exact: true, Threads: 2})
	for pid := range polys {
		if res.Counts[pid] != oracle[pid] {
			t.Errorf("trained index: polygon %d count %d, oracle %d", pid, res.Counts[pid], oracle[pid])
		}
	}
}
