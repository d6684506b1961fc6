package actjoin

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"actjoin/internal/refs"
)

// Background-compactor coverage: threshold crossings must compact off the
// writer's critical path, reconciled snapshots must be byte-identical to
// inline-rebuilt ones under arbitrary interleavings, pinned old snapshots
// must keep answering while compactions swap state under them, and aborted
// patches must leak no table garbage even when their fallback is deferred
// to a pending compaction instead of an immediate EncodeAll.

// waitForSettled blocks until no compaction is in flight (landed or
// abandoned), failing the test after a deadline — the compactor goroutine
// takes the writer mutex on its own schedule.
func waitForSettled(t *testing.T, sh *shard) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		sh.mu.Lock()
		pending := sh.compacting != nil
		sh.mu.Unlock()
		if !pending {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for the in-flight compaction to settle: %+v", sh.publishStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackgroundCompactionDifferential drives the same churn that makes the
// inline path compact (TestPublishCompactionTriggers), with the background
// compactor on, and asserts: compaction cycles actually run and land, no
// inline rebuild ever interrupts the writer after the initial build, and
// every published snapshot — including the spontaneously reconciled ones —
// stays byte- and result-identical to a from-scratch freeze.
func TestBackgroundCompactionDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	polys := make([]Polygon, 40)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	probes := randPoints(rng, 100)
	for i := 0; i < 300; i++ {
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
		if i%25 == 0 {
			assertSnapshotsEqual(t, fmt.Sprintf("churn %d", i), ix.Current(), fullFreeze(ix), probes)
		}
	}
	st := ix.PublishStats()
	if st.CompactionsLanded < 2 {
		t.Fatalf("churn landed %d background compactions, want >= 2 (%+v)", st.CompactionsLanded, st)
	}
	// Inline rebuilds must stay the rare fallback, not the steady state: a
	// tiny index under relentless churn can outrun a slow compactor's
	// replay budget (routine under -race) and a frozen layout can refuse
	// the occasional patch, but anything beyond the initial build plus the
	// abandoned cycles (with a little slack for layout refusals) means the
	// compactor stopped doing its job.
	if abandoned := st.CompactionsStarted - st.CompactionsLanded; st.Full > 3+abandoned {
		t.Fatalf("%d inline full rebuilds vastly exceed the %d abandoned compactions (%+v)",
			st.Full-1, abandoned, st)
	}
	waitForSettled(t, soleShard(ix)) // let any in-flight cycle land (or drop) first
	assertSnapshotsEqual(t, "final", ix.Current(), fullFreeze(ix), probes)
}

// TestBackgroundCompactionStressRace is the concurrency torture test (run
// under -race in CI): a background-compacting index and an inline-rebuilding
// twin receive an identical random mutation stream across at least three
// compaction cycles, every published snapshot must serialize byte-identical
// to the twin's, and reader goroutines continuously query — and pin — old
// snapshots, whose results must never change while compactions swap arenas,
// tables and ropes underneath them.
func TestBackgroundCompactionStressRace(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	polys := make([]Polygon, 40)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	bg, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	inline, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	withShards(inline, func(sh *shard) { sh.inlineCompaction = true })
	probes := randPoints(rng, 60)

	stop := make(chan struct{})
	fail := make(chan string, 8)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			type pin struct {
				s    *Snapshot
				opt  QueryOptions
				want [][]PolygonID
			}
			var pins []pin
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				opt := QueryOptions{Exact: i%2 == 0, Sorted: i%3 == 0, Threads: 1}
				s := bg.Current()
				got := s.CoversBatch(probes, opt)
				if len(pins) < 12 && i%7 == 0 {
					pins = append(pins, pin{s: s, opt: opt, want: got})
				}
				if len(pins) > 0 {
					// Re-query a pinned old snapshot: immutability means the
					// answer can never drift, no matter how many compactions
					// have swapped state since it was published.
					p := pins[r.Intn(len(pins))]
					if !reflect.DeepEqual(p.s.CoversBatch(probes, p.opt), p.want) {
						select {
						case fail <- "pinned snapshot's results changed":
						default:
						}
						return
					}
				}
			}
		}(int64(1000 + w))
	}

	live := make([]PolygonID, 0, len(polys))
	for i := range polys {
		live = append(live, PolygonID(i))
	}
	mutate := func(step int) error {
		switch op := rng.Intn(10); {
		case op < 5: // Add
			p := randSquare(rng)
			ida, err := bg.Add(p)
			if err != nil {
				return err
			}
			idb, err := inline.Add(p)
			if err != nil {
				return err
			}
			if ida != idb {
				return fmt.Errorf("step %d: ids diverged (%d vs %d)", step, ida, idb)
			}
			live = append(live, ida)
			return nil
		case op < 8: // Remove
			if len(live) == 0 {
				return nil
			}
			k := rng.Intn(len(live))
			id := live[k]
			live = append(live[:k], live[k+1:]...)
			if err := bg.Remove(id); err != nil {
				return err
			}
			return inline.Remove(id)
		case op < 9: // Train
			pts := randPoints(rng, 40)
			bg.Train(pts, 0)
			inline.Train(pts, 0)
			return nil
		default: // committed Apply batch
			ps := []Polygon{randSquare(rng), randSquare(rng)}
			apply := func(ix *Index) error {
				return ix.Apply(func(tx *Tx) error {
					for _, p := range ps {
						if _, err := tx.Add(p); err != nil {
							return err
						}
					}
					return nil
				})
			}
			if err := apply(bg); err != nil {
				return err
			}
			if err := apply(inline); err != nil {
				return err
			}
			for k := 0; k < len(ps); k++ {
				live = append(live, PolygonID(bg.Current().NumPolygons()-len(ps)+k))
			}
			return nil
		}
	}

	const maxSteps = 2500
	step := 0
	for bg.PublishStats().CompactionsLanded < 3 && step < maxSteps {
		if err := mutate(step); err != nil {
			t.Fatal(err)
		}
		var gb, wb bytes.Buffer
		if _, err := bg.Current().WriteTo(&gb); err != nil {
			t.Fatal(err)
		}
		if _, err := inline.Current().WriteTo(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("step %d: background-compacted snapshot differs from inline-rebuilt twin (%d vs %d bytes)",
				step, gb.Len(), wb.Len())
		}
		select {
		case msg := <-fail:
			t.Fatal(msg)
		default:
		}
		step++
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	if st := bg.PublishStats(); st.CompactionsLanded < 3 {
		t.Fatalf("churn of %d steps landed only %d compaction cycles (%+v)", step, st.CompactionsLanded, st)
	}
}

// snapshotOffsetCounts counts, per lookup-table offset, how many of the
// snapshot's cells encode to that record — the reference counts an exact
// encoder must carry for this snapshot.
func snapshotOffsetCounts(s *Snapshot) map[uint32]int {
	want := make(map[uint32]int)
	for _, c := range s.frozenCells() {
		if e := s.shards[0].tree.Find(c.ID.RangeMin()); e.Tag() == refs.TagOffset {
			want[e.Offset()]++
		}
	}
	return want
}

// TestAbortedPatchDeferredFallbackLeaksNoGarbage forces a patch to abort
// after it has staged encoder work, in the state where the fallback is
// deferred to a pending background compaction rather than an inline
// EncodeAll. The abort must roll the live encoder's staging back exactly
// (no phantom references, appended words accounted as garbage), the
// deferred fallback must land the compaction, and subsequent patched
// publishes must stay byte-identical to a from-scratch freeze.
func TestAbortedPatchDeferredFallbackLeaksNoGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	polys := make([]Polygon, 40)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	probes := randPoints(rng, 100)
	hold := make(chan struct{})
	sh := soleShard(ix)
	sh.mu.Lock()
	sh.holdCompaction = hold // park finished compactions until released
	sh.mu.Unlock()

	// Churn until a compaction starts; the hold keeps it pending-ready.
	for i := 0; ix.PublishStats().CompactionsStarted == 0; i++ {
		if i > 2000 {
			t.Fatal("churn never crossed a soft garbage threshold")
		}
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	sh.mu.Lock()
	c := sh.compacting
	oldEnc := sh.enc
	sh.mu.Unlock()
	if c == nil {
		t.Fatal("compaction landed despite the hold")
	}
	<-c.done // the build is finished; only the parked swap remains

	// Force the next patch to abort after staging, and publish: the
	// fallback must defer to the pending compaction (landing it
	// synchronously), not run an inline EncodeAll.
	prevSnap := ix.Current()
	sh.mu.Lock()
	sh.failPatches = 1
	sh.mu.Unlock()
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatal(err)
	}
	st := ix.PublishStats()
	if st.CompactionsLanded != 1 {
		t.Fatalf("deferred fallback did not land the pending compaction: %+v", st)
	}
	if st.Full != 1 {
		t.Fatalf("aborted patch fell back to an inline rebuild (%d full publishes) instead of the pending compaction", st.Full)
	}
	sh.mu.Lock()
	swapped := sh.enc != oldEnc
	sh.mu.Unlock()
	if !swapped {
		t.Fatal("landing the compaction did not install the fresh encoder")
	}

	// The abandoned live encoder must account exactly for the snapshot
	// published before the aborted patch: the rollback removed every staged
	// reference, and whatever words the abort appended are tombstoned.
	want := snapshotOffsetCounts(prevSnap)
	leaked := 0
	for off, n := range oldEnc.LiveEntries() {
		if n != want[off] {
			t.Errorf("offset %d: live count %d after rollback, want %d", off, n, want[off])
		}
		if n == 0 {
			leaked += oldEnc.Table().RecordLen(off)
		}
	}
	if oldEnc.GarbageWords() != leaked {
		t.Fatalf("encoder reports %d garbage words, tombstoned records hold %d — staged work leaked",
			oldEnc.GarbageWords(), leaked)
	}

	// Release the parked goroutine (it finds its compaction superseded and
	// drops the result), keep patching on the fresh encoder, and require
	// continued exactness.
	close(hold)
	for i := 0; i < 20; i++ {
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	assertSnapshotsEqual(t, "after deferred fallback", ix.Current(), fullFreeze(ix), probes)
	if patched, _ := publishCounters(ix); patched == 0 {
		t.Fatal("incremental path never engaged")
	}
}

// TestBackgroundCompactionResetsMaxCellLevel: removing the deepest polygon
// leaves the stale probe-sort depth on patched snapshots (the documented
// drift), but the next background compaction that lands after the removal
// must recompute it — the depth can no longer creep forever. Companion of
// TestFullRebuildResetsSnapshotMaxCellLevel, which pins the inline-rebuild
// reset.
func TestBackgroundCompactionResetsMaxCellLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	polys := make([]Polygon, 10)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	tiny := Polygon{Exterior: Ring{
		{Lon: -74.0, Lat: 40.7}, {Lon: -73.999995, Lat: 40.7},
		{Lon: -73.999995, Lat: 40.700005}, {Lon: -74.0, Lat: 40.700005},
	}}
	tinyID := PolygonID(len(polys))
	polys = append(polys, tiny)

	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	sh := soleShard(ix)
	deepLevel := sh.Current().tree.MaxCellLevel()
	fresh, err := NewIndex(polys[:tinyID], WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	want := soleShard(fresh).Current().tree.MaxCellLevel()
	if want >= deepLevel {
		t.Fatalf("fixture broken: remaining polygons reach level %d >= tiny polygon's %d", want, deepLevel)
	}

	if err := ix.Remove(tinyID); err != nil {
		t.Fatal(err)
	}
	if got := sh.Current().tree.MaxCellLevel(); got != deepLevel {
		t.Fatalf("patched MaxCellLevel = %d right after removal; the documented drift keeps %d until a compaction", got, deepLevel)
	}

	// Churn shallow squares until a compaction that started after the
	// removal lands; its rebuilt base must have recomputed the level, and
	// the shallow replay cannot raise it back.
	startedBefore := ix.PublishStats().CompactionsStarted
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("no post-removal compaction reset MaxCellLevel from %d to %d (%+v)",
				sh.Current().tree.MaxCellLevel(), want, ix.PublishStats())
		}
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
		st := ix.PublishStats()
		if st.CompactionsLanded > 0 && st.CompactionsStarted > startedBefore &&
			sh.Current().tree.MaxCellLevel() == want {
			break
		}
	}
	if st := ix.PublishStats(); st.Full != 1 {
		t.Fatalf("the reset came from an inline rebuild, not a background compaction: %+v", st)
	}
}

// TestPoisonedReplayFallsBackInline: a bulk publish while a compaction is
// in flight poisons the replay log; the compaction must be discarded (never
// landed) and correctness preserved through the inline rebuild.
func TestPoisonedReplayFallsBackInline(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	polys := make([]Polygon, 40)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	hold := make(chan struct{})
	sh := soleShard(ix)
	sh.mu.Lock()
	sh.holdCompaction = hold
	sh.mu.Unlock()
	for i := 0; ix.PublishStats().CompactionsStarted == 0; i++ {
		if i > 2000 {
			t.Fatal("churn never started a compaction")
		}
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	// A precision retrofit marks the whole covering dirty: the next publish
	// is a bulk rebuild, which must poison and abandon the compaction.
	sh.mu.Lock()
	sh.sc.RefineToPrecision(sh.polys, sh.Current().tree.MaxCellLevel()+1)
	sh.publish()
	sh.mu.Unlock()
	close(hold)

	st := ix.PublishStats()
	if st.CompactionsLanded != 0 {
		t.Fatalf("poisoned compaction landed anyway: %+v", st)
	}
	probes := randPoints(rng, 100)
	assertSnapshotsEqual(t, "after poisoned replay", ix.Current(), fullFreeze(ix), probes)
}
