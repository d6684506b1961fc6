package join

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"actjoin/internal/cellid"
	"actjoin/internal/cellindex"
	"actjoin/internal/geom"
	"actjoin/internal/refs"
)

// referenceCollect materializes per-point results through the single-point
// probe path, the oracle for the batch pipeline.
func referenceCollect(f *fixture, mode Mode) [][]uint32 {
	exact := mode == Exact
	out := make([][]uint32, len(f.pts))
	for i := range f.pts {
		entry := f.actT.Find(f.cells[i])
		if entry.IsFalseHit() {
			continue
		}
		f.table.Visit(entry, func(r refs.Ref) {
			if !r.Interior() && exact && !f.polys[r.PolygonID()].ContainsPoint(f.pts[i]) {
				return
			}
			out[i] = append(out[i], r.PolygonID())
		})
	}
	return out
}

func batchVariants() []BatchOptions {
	var out []BatchOptions
	for _, mode := range []Mode{Approximate, Exact} {
		for _, sorted := range []bool{false, true} {
			for _, threads := range []int{1, 4} {
				out = append(out, BatchOptions{Mode: mode, Sorted: sorted, Threads: threads})
			}
		}
	}
	return out
}

func TestBatchCollectMatchesSinglePointPath(t *testing.T) {
	f := newFixture(t, true, 20000)
	for _, opt := range batchVariants() {
		want := referenceCollect(f, opt.Mode)
		got, res := RunBatchCollect(f.actT, f.table, f.pts, f.cells, f.polys, opt)
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%+v: point %d: got %v, want %v", opt, i, got[i], want[i])
				}
			}
		}
		if res.Points != len(f.pts) {
			t.Errorf("%+v: Points = %d", opt, res.Points)
		}
	}
}

func TestBatchCountMatchesRun(t *testing.T) {
	f := newFixture(t, true, 20000)
	for _, opt := range batchVariants() {
		want := Run(f.actT, f.table, f.pts, f.cells, f.polys, Options{Mode: opt.Mode})
		got := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys, opt)
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%+v: counts diverge from Run", opt)
		}
		if got.Matched != want.Matched || got.SolelyTrueHits != want.SolelyTrueHits {
			t.Errorf("%+v: matched/sth %d/%d, want %d/%d",
				opt, got.Matched, got.SolelyTrueHits, want.Matched, want.SolelyTrueHits)
		}
		if opt.Mode == Exact && got.PIPTests == 0 {
			t.Errorf("%+v: exact batch performed no PIP tests", opt)
		}
	}
}

func TestBatchExactMatchesBruteForce(t *testing.T) {
	f := newFixture(t, false, 20000)
	res := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys,
		BatchOptions{Mode: Exact, Sorted: true, Threads: 4})
	for pid := range f.polys {
		if res.Counts[pid] != f.oracle[pid] {
			t.Errorf("polygon %d count %d, oracle %d", pid, res.Counts[pid], f.oracle[pid])
		}
	}
}

func TestBatchSortedCacheHits(t *testing.T) {
	f := newFixture(t, true, 20000)
	sorted := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys,
		BatchOptions{Mode: Approximate, Sorted: true, Threads: 1})
	if sorted.CacheHits == 0 {
		t.Error("sorted clustered probe stream produced no cache hits")
	}
	// A sorted stream must produce at least as many run hits as the raw
	// stream (taxi points are clustered but interleaved).
	unsorted := RunBatchCount(f.actT, f.table, f.pts, f.cells, f.polys,
		BatchOptions{Mode: Approximate, Sorted: false, Threads: 1})
	if sorted.CacheHits < unsorted.CacheHits {
		t.Errorf("sorted cache hits %d < unsorted %d", sorted.CacheHits, unsorted.CacheHits)
	}
}

func TestBatchNonRangeIndexFallback(t *testing.T) {
	// GBT and LB don't implement RangeIndex; the batch path must fall back
	// to plain Find and still agree.
	f := newFixture(t, true, 10000)
	for name, idx := range map[string]cellindex.Index{"gbt": f.gbt, "lb": f.lb} {
		if _, ok := idx.(cellindex.RangeIndex); ok {
			t.Fatalf("%s unexpectedly implements RangeIndex; test needs a new non-range structure", name)
		}
		want := Run(idx, f.table, f.pts, f.cells, f.polys, Options{Mode: Exact})
		got := RunBatchCount(idx, f.table, f.pts, f.cells, f.polys,
			BatchOptions{Mode: Exact, Sorted: true, Threads: 2})
		if !reflect.DeepEqual(got.Counts, want.Counts) {
			t.Errorf("%s: batch counts diverge from Run", name)
		}
		if got.CacheHits != 0 {
			t.Errorf("%s: cache hits %d without RangeIndex", name, got.CacheHits)
		}
	}
}

func TestBatchEmptyAndTiny(t *testing.T) {
	f := newFixture(t, false, 100)
	out, res := RunBatchCollect(f.actT, f.table, nil, nil, f.polys,
		BatchOptions{Mode: Exact, Sorted: true})
	if len(out) != 0 || res.Points != 0 || sum(res.Counts) != 0 {
		t.Errorf("empty batch: out=%d res=%+v", len(out), res)
	}
	// Tiny inputs are forced single-threaded; results must still line up.
	got, _ := RunBatchCollect(f.actT, f.table, f.pts[:5], f.cells[:5], f.polys,
		BatchOptions{Mode: Approximate, Sorted: true, Threads: 8})
	want := referenceCollect(f, Approximate)
	if !reflect.DeepEqual(got, want[:5]) {
		t.Errorf("tiny batch diverges: got %v want %v", got, want[:5])
	}
}

// buildSchedule runs the pipeline's convert and schedule stages over cells
// against idx on the given number of workers and returns the pipeline with
// the schedule.
func buildSchedule(t *testing.T, idx cellindex.Index, cells []cellid.CellID, workers int, sorted bool) (*pipeline, schedule) {
	t.Helper()
	p := new(pipeline)
	sh := []Shard{{Index: idx}}
	p.init(sh, nil, nil, cells, len(cells), workers, 1, sorted, false, nil)
	scheds := make([]schedule, workers)
	var wg sync.WaitGroup
	for w := range scheds {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			scheds[w] = p.stages(w, workers)
		}(w)
	}
	wg.Wait()
	for _, s := range scheds[1:] {
		if &s.words[0] != &scheds[0].words[0] || s.minKey != scheds[0].minKey || s.coarse != scheds[0].coarse {
			t.Fatal("workers disagree on the schedule")
		}
	}
	return p, scheds[0]
}

func TestSchedule(t *testing.T) {
	f := newFixture(t, false, 5000)
	wide := append([]cellid.CellID{cellid.FromPoint(geom.Point{X: 150, Y: -80})}, f.cells...)
	for _, workers := range []int{1, 3} {
		for _, idx := range []cellindex.Index{f.actT, f.gbt} {
			for _, cells := range [][]cellid.CellID{f.cells, wide} {
				for _, sorted := range []bool{false, true} {
					p, s := buildSchedule(t, idx, cells, workers, sorted)
					keys := make([]uint64, len(cells))
					for i, c := range cells {
						keys[i] = uint64(c) >> p.drop
					}
					seen := make([]bool, len(cells))
					for k, word := range s.words {
						i := int(uint32(word))
						if seen[i] {
							t.Fatalf("position %d scheduled twice", i)
						}
						seen[i] = true
						// Each word rebuilds its point's key: the leaf
						// truncated at the deepest indexed level.
						if got := p.key(&s, word); got != keys[i] {
							t.Fatalf("slot %d: key %#x, want %#x", k, got, keys[i])
						}
						if leaf := cellid.CellID(keys[i]<<p.drop | 1); !leaf.IsValid() || !leaf.IsLeaf() {
							t.Fatalf("slot %d: rebuilt leaf %#x invalid", k, uint64(leaf))
						}
						switch {
						case !sorted && i != k:
							t.Fatalf("unsorted slot %d holds position %d", k, i)
						case sorted && k > 0 && s.words[k-1]>>32 > word>>32:
							t.Fatalf("slot %d: word key %#x after %#x", k, word>>32, s.words[k-1]>>32)
						}
					}
				}
			}
		}
	}
	// An index without a level keeps the whole leaf id; a world-wide batch
	// needs more than the word's 32 key bits.
	if p, _ := buildSchedule(t, f.gbt, f.cells, 1, true); p.drop != 1 {
		t.Errorf("levelless index: drop %d, want 1", p.drop)
	}
	if _, s := buildSchedule(t, f.actT, wide, 1, true); s.coarse == 0 {
		t.Error("world-wide batch packed exact word keys")
	}
	if p, s := buildSchedule(t, f.actT, f.cells, 1, true); p.level != f.actT.MaxCellLevel() || s.coarse != 0 {
		t.Errorf("level %d, coarse %d: want the index's level %d and exact word keys", p.level, s.coarse, f.actT.MaxCellLevel())
	}
}

// TestBatchWideKeyRange joins a batch whose keys span more than a schedule
// word's 32 key bits — points on other faces and at the world's corners
// beside the city — so the probe reads exact keys back from the input
// order.
func TestBatchWideKeyRange(t *testing.T) {
	f := newFixture(t, true, 8000)
	pts := append([]geom.Point{{X: 150, Y: -80}, {X: -179, Y: 89}, {X: 0, Y: 0}}, f.pts...)
	cells := make([]cellid.CellID, len(pts))
	for i, p := range pts {
		cells[i] = cellid.FromPoint(p)
	}
	for _, opt := range batchVariants() {
		want := Run(f.actT, f.table, pts, cells, f.polys, Options{Mode: opt.Mode})
		got := RunBatchCount(f.actT, f.table, pts, cells, f.polys, opt)
		if !reflect.DeepEqual(got.Counts, want.Counts) || got.Matched != want.Matched || got.SolelyTrueHits != want.SolelyTrueHits {
			t.Errorf("%+v: wide batch diverges from Run", opt)
		}
	}
}

// TestBarrier holds the stage barrier to its contract over several rounds,
// each with a straggler that arrives long after the others have used up
// their spin budget and parked: no worker leaves a round before every
// worker has reached it.
func TestBarrier(t *testing.T) {
	const workers, rounds = 3, 6
	p := new(pipeline)
	p.park.L = &p.parkMu
	var reached [workers]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := int32(1); r <= rounds; r++ {
				if int(r)%workers == w {
					time.Sleep(2 * time.Millisecond)
				}
				reached[w].Store(r)
				p.barrier(workers)
				for v := range reached {
					if got := reached[v].Load(); got < r {
						t.Errorf("worker %d left round %d while worker %d was at round %d", w, r, v, got)
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
