package main

import (
	"fmt"
	"math/rand"

	"actjoin/internal/dataset"
	"actjoin/internal/geom"
)

// Workload shape. Every batch is one closed-loop JoinCount call; the point
// pool is cycled, so a run joins far more batches than the pool holds.
const (
	batchPoints  = 1 << 16 // points per JoinCount batch
	poolBatches  = 16      // distinct batches generated per run
	oracleSample = 2048    // points per pool batch checked by brute force
	lookupChunk  = 4096    // Covers calls per pinned snapshot and timer read
	verifyPoints = 1 << 14 // churn verification sample
	squareGrid   = 4       // churn squares are spread over a squareGrid x squareGrid grid
	squarePool   = squareGrid * squareGrid
	squareFrac   = 0.01 // churn square side as a fraction of the city bound's sides
)

// publishRate is the open-loop writer's publishes per second (an Add or a
// Remove each), well under the closed-loop capacity of 180-250 per second
// on join-fine's index.
const publishRate = 60

// The index both workloads run on: the tiny NYC-neighborhoods mesh (36
// polygons) at a 4 m precision bound, about 0.9M cells and a ~42 MB trie,
// far beyond a core's cache, split into two shards.
const (
	precisionMeters = 4
	shardCount      = 2
)

// citySpec generates the polygons of the index.
var citySpec = dataset.NYCNeighborhoods(dataset.ScaleTiny)

// workload is one named load pattern on the index.
type workload struct {
	name string
	why  string
	// threads is the JoinCount thread budget of the batch client.
	threads int
	// mixed runs the open-loop writer beside a closed-loop reader for the
	// whole window; otherwise reads and publishes alternate.
	mixed bool
}

// workloads are the named workloads, as listed in BENCHMARK.json.
var workloads = []workload{
	{
		name:    "join-fine",
		why:     "36 polygons at 4 m precision (0.9M cells, ~42 MB trie) on 2 shards: point conversion, sort, shard split and trie probe dominate; PIP is rare",
		threads: 2,
	},
	{
		name:    "churn-mixed",
		why:     "join-fine's index under an open-loop Add/Remove writer beside a closed-loop reader: the publish path, and writes and reads slowing each other",
		threads: 1,
		mixed:   true,
	},
}

// findWorkload returns the workload with the given name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs is everything a run feeds the engine, generated from the seeds
// before any timing starts.
type inputs struct {
	polys   []*geom.Polygon
	bound   geom.Rect
	gbatch  [][]geom.Point // pool batches, generator form (oracle, replay)
	batch   [][]point      // pool batches, public form
	squares []*geom.Polygon
	psq     []polygon // squares, public form
	centers []point   // centers of the squares, public form
	verify  []point   // churn verification sample
}

// generate builds the inputs of a run. The geometry — the polygon tiling
// and the churn squares — comes from the dataset spec's seed, replaced by
// polySeed when it is nonzero; the points, the order of the churn squares
// and the verification sample come from seed.
func generate(seed, polySeed int64) inputs {
	spec := citySpec
	if polySeed != 0 {
		spec.Seed = polySeed
	}
	var in inputs
	in.polys = spec.Generate()
	in.bound = dataset.MBR(in.polys)
	pts := dataset.TaxiPoints(in.bound, poolBatches*batchPoints, seed)
	for b := 0; b < poolBatches; b++ {
		g := pts[b*batchPoints : (b+1)*batchPoints]
		in.gbatch = append(in.gbatch, g)
		in.batch = append(in.batch, toPublicPoints(g))
	}

	// The churn squares are part of the workload's geometry, like the
	// tiling: one per cell of a squareGrid x squareGrid grid over the middle
	// 80% of the bound, jittered within its cell by the polygon seed. The
	// run seed only shuffles the order in which the writer visits them, so
	// every seed publishes the same mix of cheap and costly squares.
	geo := rand.New(rand.NewSource(spec.Seed))
	wd := in.bound.Width() * squareFrac
	ht := in.bound.Height() * squareFrac
	squares := make([]*geom.Polygon, squarePool)
	for i := range squares {
		gx := float64(i%squareGrid) + 0.25 + 0.5*geo.Float64()
		gy := float64(i/squareGrid) + 0.25 + 0.5*geo.Float64()
		cx := in.bound.Lo.X + in.bound.Width()*(0.1+0.8*gx/squareGrid)
		cy := in.bound.Lo.Y + in.bound.Height()*(0.1+0.8*gy/squareGrid)
		squares[i] = geom.MustPolygon(geom.Ring{
			{X: cx - wd/2, Y: cy - ht/2}, {X: cx + wd/2, Y: cy - ht/2},
			{X: cx + wd/2, Y: cy + ht/2}, {X: cx - wd/2, Y: cy + ht/2},
		})
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	for _, i := range rng.Perm(squarePool) {
		in.squares = append(in.squares, squares[i])
		in.psq = append(in.psq, toPublicPolygon(squares[i]))
		c := squares[i].Bound().Center()
		in.centers = append(in.centers, point{Lon: c.X, Lat: c.Y})
	}

	// Half the verification sample is uniform over the city, half falls
	// inside the churn squares, where adds and removes rewrote the index.
	vs := dataset.UniformPoints(in.bound, verifyPoints/2, seed+1)
	for i := 0; i < verifyPoints/2; i++ {
		b := in.squares[i%squarePool].Bound()
		vs = append(vs, geom.Point{
			X: b.Lo.X + (b.Hi.X-b.Lo.X)*rng.Float64(),
			Y: b.Lo.Y + (b.Hi.Y-b.Lo.Y)*rng.Float64(),
		})
	}
	in.verify = toPublicPoints(vs)
	return in
}
