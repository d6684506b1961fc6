package join

import (
	"testing"

	"actjoin/internal/act"
	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// allocSink keeps harness results live so the measured calls cannot be
// eliminated.
var allocSink int64

// testAllocs warms f up once — growing the worker's scratch and result
// buffers to steady state — and then fails if f still allocates per run.
func testAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f()
	if avg := testing.AllocsPerRun(100, f); avg != 0 {
		t.Errorf("%s: %v allocs/run, want 0", name, avg)
	}
}

// TestNoAllocHarness is allocbound's dynamic cross-check: the run probe
// loop runs under testing.AllocsPerRun over a sorted schedule on two
// shards, the configuration the batch join uses in steady state. The
// //act:alloc-harness marker is what `actvet` matches against the
// annotated function.
func TestNoAllocHarness(t *testing.T) {
	leaf := cellid.FromPoint(geom.Point{X: -73.98, Y: 40.71})
	tbl := refs.NewTable()
	entry := tbl.Encode([]refs.Ref{refs.MakeRef(3, true)})
	cell := leaf.Parent(6)
	tr := act.Build([]cellindex.KeyEntry{{Key: cell, Entry: entry}}, act.Delta4)

	// 1024 nearby leaves in a narrow range, split between two shards at a
	// bound inside the indexed cell.
	cells := make([]cellid.CellID, 1024)
	for i := range cells {
		cells[i] = cellid.CellID(uint64(leaf) + uint64(2*i))
	}
	bounds := []cellid.CellID{cells[512]}
	shards := []Shard{{Index: tr, Table: tbl}, {Index: tr, Table: tbl}}
	p := new(pipeline)
	p.init(shards, bounds, nil, cells, len(cells), 1, 4, true, false, nil)
	s := p.stages(0, 1)
	w := p.workers[0]

	//act:alloc-harness pipeline.probeRuns
	testAllocs(t, "pipeline.probeRuns", func() {
		w.counts[3], w.sth, w.cacheHits, w.matched = 0, 0, 0, 0
		p.probeRuns(w, &s, 0, p.n)
		allocSink += w.counts[3]
	})
	if w.counts[3] != int64(len(cells)) {
		t.Errorf("harness probe counted %d points, want %d", w.counts[3], len(cells))
	}
}
