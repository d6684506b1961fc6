package actjoin

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
)

// Cross-shard differential suite: an index of several shards must be
// indistinguishable from a one-shard index driven through the same mutation
// history — same ids, same errors, same query answers, and byte-identical
// serialization — at 1, 2 and 6 shards. The polygons here are small
// relative to the shard split (no covering cell spans a boundary), so the
// byte-identity contract from the Index type comment applies in full.

// assertShardedMatches compares the sharded index's snapshot against
// the one-shard index on everything a caller can observe.
func assertShardedMatches(t *testing.T, ctx string, six *Index, ix *Index, probes []Point) {
	t.Helper()
	ss := six.Current()
	ps := ix.Current()
	if g, w := ss.NumPolygons(), ps.NumPolygons(); g != w {
		t.Fatalf("%s: NumPolygons = %d, want %d", ctx, g, w)
	}
	var gb, wb bytes.Buffer
	if _, err := ss.WriteTo(&gb); err != nil {
		t.Fatalf("%s: sharded WriteTo: %v", ctx, err)
	}
	if _, err := ps.WriteTo(&wb); err != nil {
		t.Fatalf("%s: plain WriteTo: %v", ctx, err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: serialized states differ (%d vs %d bytes)", ctx, gb.Len(), wb.Len())
	}
	if g, w := ss.Stats(), ps.Stats(); g.NumCells != w.NumCells || g.NumPolygons != w.NumPolygons {
		t.Fatalf("%s: stats differ: %+v vs %+v", ctx, g, w)
	}
	for i, p := range probes {
		if g, w := ss.Covers(p), ps.Covers(p); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Covers(probe %d) = %v, want %v", ctx, i, g, w)
		}
		if g, w := ss.CoversApprox(p), ps.CoversApprox(p); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: CoversApprox(probe %d) = %v, want %v", ctx, i, g, w)
		}
	}
	for _, exact := range []bool{false, true} {
		for _, sorted := range []bool{false, true} {
			opt := QueryOptions{Exact: exact, Sorted: sorted, Threads: 2}
			g := ss.CoversBatch(probes, opt)
			w := ps.CoversBatch(probes, opt)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: CoversBatch(exact=%v sorted=%v) differs", ctx, exact, sorted)
			}
			gj := ss.JoinCount(probes, opt)
			wj := ps.JoinCount(probes, opt)
			if !reflect.DeepEqual(gj.Counts, wj.Counts) {
				t.Fatalf("%s: JoinCount(exact=%v sorted=%v) counts differ:\n%v\n%v",
					ctx, exact, sorted, gj.Counts, wj.Counts)
			}
		}
	}
	for id := 0; id < ps.NumPolygons(); id++ {
		if g, w := ss.Removed(PolygonID(id)), ps.Removed(PolygonID(id)); g != w {
			t.Fatalf("%s: Removed(%d) = %v, want %v", ctx, id, g, w)
		}
	}
}

// TestShardedDifferential drives identical randomized mutation histories —
// adds, removes (including double removes and unknown ids), unlimited-budget
// training, multi-op transactions and aborted transactions — through a
// one-shard index and indexes of 1, 2 and 6 shards, asserting complete
// observable equivalence after every operation and a byte-identical
// serialization round trip at the end.
func TestShardedDifferential(t *testing.T) {
	for _, shards := range []int{1, 2, 6} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			shardedDifferentialRun(t, shards)
		})
	}
}

func shardedDifferentialRun(t *testing.T, shards int) {
	rng := rand.New(rand.NewSource(int64(40 + shards)))
	initial := make([]Polygon, 30)
	for i := range initial {
		initial[i] = randSquare(rng)
	}
	opts := []Option{WithPrecision(4)}
	ix, err := NewIndex(initial, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	six, err := NewShardedIndex(initial, shards, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer six.Close()
	t.Logf("requested %d shards, effective %d", shards, six.NumShards())

	probes := randPoints(rng, 200)
	assertShardedMatches(t, "initial", six, ix, probes)

	live := make([]PolygonID, 0, 64)
	for i := range initial {
		live = append(live, PolygonID(i))
	}
	removed := make([]PolygonID, 0, 64)

	for op := 0; op < 60; op++ {
		ctx := fmt.Sprintf("op %d", op)
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // add
			p := randSquare(rng)
			id1, err1 := ix.Add(p)
			id2, err2 := six.Add(p)
			if err1 != nil || err2 != nil || id1 != id2 {
				t.Fatalf("%s: Add diverged: (%v, %v) vs (%v, %v)", ctx, id1, err1, id2, err2)
			}
			live = append(live, id1)
		case 4, 5: // remove a live polygon
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			id := live[i]
			err1 := ix.Remove(id)
			err2 := six.Remove(id)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: Remove(%d) diverged: %v vs %v", ctx, id, err1, err2)
			}
			live = append(live[:i], live[i+1:]...)
			removed = append(removed, id)
		case 6: // remove errors: unknown id and double remove
			bad := PolygonID(ix.Current().NumPolygons() + 3)
			err1, err2 := ix.Remove(bad), six.Remove(bad)
			if err1 == nil || err2 == nil || err1.Error() != err2.Error() {
				t.Fatalf("%s: unknown-id Remove diverged: %v vs %v", ctx, err1, err2)
			}
			if len(removed) > 0 {
				id := removed[rng.Intn(len(removed))]
				err1, err2 = ix.Remove(id), six.Remove(id)
				if !errors.Is(err1, ErrRemoved) || !errors.Is(err2, ErrRemoved) {
					t.Fatalf("%s: double Remove(%d) diverged: %v vs %v", ctx, id, err1, err2)
				}
			}
		case 7: // unlimited-budget training must match exactly, stats included
			pts := randPoints(rng, 40)
			st1 := ix.Train(pts, 0)
			st2 := six.Train(pts, 0)
			if !reflect.DeepEqual(st1, st2) {
				t.Fatalf("%s: TrainStats diverged: %+v vs %+v", ctx, st1, st2)
			}
		case 8, 9: // transaction: adds, maybe a remove, a training pass
			adds := []Polygon{randSquare(rng), randSquare(rng)}
			trainPts := randPoints(rng, 20)
			rm := -1
			if len(live) > 0 && rng.Intn(2) == 0 {
				rm = int(live[rng.Intn(len(live))])
			}
			removeOwnAdd := rng.Intn(3) == 0
			var ids1, ids2 []PolygonID
			err1 := ix.Apply(func(tx *Tx) error {
				for _, p := range adds {
					id, err := tx.Add(p)
					if err != nil {
						return err
					}
					ids1 = append(ids1, id)
				}
				if rm >= 0 {
					if err := tx.Remove(PolygonID(rm)); err != nil {
						return err
					}
				}
				if removeOwnAdd {
					if err := tx.Remove(ids1[0]); err != nil {
						return err
					}
				}
				tx.Train(trainPts, 0)
				return nil
			})
			err2 := six.Apply(func(tx *Tx) error {
				for _, p := range adds {
					id, err := tx.Add(p)
					if err != nil {
						return err
					}
					ids2 = append(ids2, id)
				}
				if rm >= 0 {
					if err := tx.Remove(PolygonID(rm)); err != nil {
						return err
					}
				}
				if removeOwnAdd {
					if err := tx.Remove(ids2[0]); err != nil {
						return err
					}
				}
				tx.Train(trainPts, 0)
				return nil
			})
			if err1 != nil || err2 != nil || !reflect.DeepEqual(ids1, ids2) {
				t.Fatalf("%s: Apply diverged: (%v, %v) vs (%v, %v)", ctx, ids1, err1, ids2, err2)
			}
			if rm >= 0 {
				for i, id := range live {
					if int(id) == rm {
						live = append(live[:i], live[i+1:]...)
						break
					}
				}
				removed = append(removed, PolygonID(rm))
			}
			for i, id := range ids1 {
				if i == 0 && removeOwnAdd {
					removed = append(removed, id)
					continue
				}
				live = append(live, id)
			}
		case 10, 11: // aborted transaction: ids void, nothing published
			p := randSquare(rng)
			abort := errors.New("abort")
			stage := func(add func(Polygon) (PolygonID, error), remove func(PolygonID) error) error {
				if _, err := add(p); err != nil {
					return err
				}
				if len(live) > 0 {
					if err := remove(live[0]); err != nil {
						return err
					}
				}
				return abort
			}
			err1 := ix.Apply(func(tx *Tx) error { return stage(tx.Add, tx.Remove) })
			err2 := six.Apply(func(tx *Tx) error { return stage(tx.Add, tx.Remove) })
			if !errors.Is(err1, abort) || !errors.Is(err2, abort) {
				t.Fatalf("%s: aborted Apply diverged: %v vs %v", ctx, err1, err2)
			}
		}
		assertShardedMatches(t, ctx, six, ix, probes)
	}

	// The composed serialization must round-trip through ReadIndexFrom into
	// an index indistinguishable from the plain one.
	var buf bytes.Buffer
	if _, err := six.Current().WriteTo(&buf); err != nil {
		t.Fatalf("final WriteTo: %v", err)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadIndexFrom(sharded bytes): %v", err)
	}
	defer loaded.Close()
	assertSnapshotsEqual(t, "roundtrip", loaded.Current(), ix.Current(), probes)
}

// TestShardedClosedAndLimits covers the sharded error surfaces that the
// randomized run cannot hit deterministically: constructor validation and
// post-Close behaviour.
func TestShardedClosedAndLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if _, err := NewShardedIndex(nil, 2); err == nil {
		t.Fatal("NewShardedIndex(no polygons) succeeded")
	}
	if _, err := NewShardedIndex([]Polygon{randSquare(rng)}, 0); err == nil {
		t.Fatal("NewShardedIndex(0 shards) succeeded")
	}
	if _, err := NewShardedIndex([]Polygon{randSquare(rng)}, MaxShards+1); err == nil {
		t.Fatalf("NewShardedIndex(%d shards) succeeded", MaxShards+1)
	}

	six, err := NewShardedIndex([]Polygon{randSquare(rng), randSquare(rng)}, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := six.Current()
	if err := six.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := six.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := six.Add(randSquare(rng)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close: %v, want ErrClosed", err)
	}
	if err := six.Remove(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Remove after Close: %v, want ErrClosed", err)
	}
	if err := six.Apply(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close: %v, want ErrClosed", err)
	}
	if st := six.Train(randPoints(rng, 5), 0); st != (TrainStats{}) {
		t.Fatalf("Train after Close: %+v, want zero", st)
	}
	if h := six.Health(); h.State != Closed || !errors.Is(h.Cause, ErrClosed) {
		t.Fatalf("Health after Close: %+v", h)
	}
	// Pinned and fresh composed snapshots stay serviceable after Close.
	if got := six.Current().NumPolygons(); got != s.NumPolygons() {
		t.Fatalf("Current after Close: %d polygons, want %d", got, s.NumPolygons())
	}
	if s.CoversBatch(randPoints(rng, 10), QueryOptions{}) == nil {
		t.Fatal("CoversBatch on pinned snapshot returned nil slice header")
	}
}

// clusterSquare returns a small square inside one of two well-separated
// clusters, so a two-cluster polygon set gives the shard router a natural
// split and churn can be targeted at one shard's key range.
func clusterSquare(rng *rand.Rand, cluster int) Polygon {
	base := [2]struct{ lox, loy float64 }{
		{diffBound.lox + 0.01*diffBound.w, diffBound.loy + 0.01*diffBound.h},
		{diffBound.lox + 0.80*diffBound.w, diffBound.loy + 0.80*diffBound.h},
	}[cluster]
	x := base.lox + rng.Float64()*0.15*diffBound.w
	y := base.loy + rng.Float64()*0.15*diffBound.h
	s := (0.01 + rng.Float64()*0.03) * diffBound.w
	return Polygon{Exterior: Ring{
		{Lon: x, Lat: y}, {Lon: x + s, Lat: y},
		{Lon: x + s, Lat: y + s}, {Lon: x, Lat: y + s},
	}}
}

// sentinelSquare returns a tiny square centered on p, used as one half of a
// cross-shard sentinel pair.
func sentinelSquare(p Point) Polygon {
	const s = 0.002
	return Polygon{Exterior: Ring{
		{Lon: p.Lon - s, Lat: p.Lat - s}, {Lon: p.Lon + s, Lat: p.Lat - s},
		{Lon: p.Lon + s, Lat: p.Lat + s}, {Lon: p.Lon - s, Lat: p.Lat + s},
	}}
}

// TestShardedRaceStress exercises the full concurrent surface under the race
// detector: single-shard writers churning different regions, a cross-shard
// transaction repeatedly adding and removing a sentinel pair, and readers
// pinning composed snapshots. Invariants: a composed snapshot never shows a
// torn cross-shard transaction (the sentinel pair is visible atomically),
// its generation is always even, and Close leaks no goroutines.
func TestShardedRaceStress(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(77))
	var initial []Polygon
	for i := 0; i < 12; i++ {
		initial = append(initial, clusterSquare(rng, 0), clusterSquare(rng, 1))
	}
	six, err := NewShardedIndex(initial, 4, WithPrecision(4), WithCoveringBudget(16, 32))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("effective shards: %d", six.NumShards())

	// Sentinel corners, far from both churn clusters; only the sentinel
	// transaction ever covers them, so a composed snapshot must see both or
	// neither.
	pA := Point{Lon: diffBound.lox + 0.45*diffBound.w, Lat: diffBound.loy + 0.05*diffBound.h}
	pB := Point{Lon: diffBound.lox + 0.45*diffBound.w, Lat: diffBound.loy + 0.95*diffBound.h}
	sentA, sentB := sentinelSquare(pA), sentinelSquare(pB)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // cross-shard sentinel transactions
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			var ids [2]PolygonID
			err := six.Apply(func(tx *Tx) error {
				var err error
				if ids[0], err = tx.Add(sentA); err != nil {
					return err
				}
				ids[1], err = tx.Add(sentB)
				return err
			})
			if err != nil {
				t.Errorf("sentinel add Apply: %v", err)
				return
			}
			err = six.Apply(func(tx *Tx) error {
				if err := tx.Remove(ids[0]); err != nil {
					return err
				}
				return tx.Remove(ids[1])
			})
			if err != nil {
				t.Errorf("sentinel remove Apply: %v", err)
				return
			}
		}
	}()

	for w := 0; w < 2; w++ { // per-cluster churn writers (single-shard commits)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, err := six.Add(clusterSquare(rng, w))
				if err != nil {
					t.Errorf("churn writer %d: Add: %v", w, err)
					return
				}
				if err := six.Remove(id); err != nil {
					t.Errorf("churn writer %d: Remove(%d): %v", w, id, err)
					return
				}
			}
		}(w)
	}

	for r := 0; r < 3; r++ { // readers on composed snapshots
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			probes := randPoints(rng, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := six.Current()
				if s.gen&1 != 0 {
					t.Errorf("reader %d: composed snapshot pinned at odd generation %d", r, s.gen)
					return
				}
				a := len(s.Covers(pA)) > 0
				b := len(s.Covers(pB)) > 0
				if a != b {
					t.Errorf("reader %d: torn cross-shard view: sentinel A=%v B=%v", r, a, b)
					return
				}
				// The pinned composition stays consistent under writer churn.
				res := s.JoinCount(probes, QueryOptions{Exact: r%2 == 0, Threads: 2})
				if len(res.Counts) != s.NumPolygons() {
					t.Errorf("reader %d: %d counts for %d polygons", r, len(res.Counts), s.NumPolygons())
					return
				}
				s.CoversBatch(probes, QueryOptions{Sorted: true})
			}
		}(r)
	}

	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := six.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitForGoroutines(t, baseGoroutines)
}
