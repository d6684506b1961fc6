package actjoin

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"actjoin/internal/fault"
)

// Failure-domain coverage: every fault-injection seam must be contained by
// the layer that owns it. Writer-side faults roll the mutation back (or fall
// back to the full freeze) and never publish a torn snapshot; compactor
// faults are recovered, retried and — past the threshold — quarantined with
// the index degraded to inline compaction; pinned snapshots are never
// disturbed; Close always drains the compactor goroutine.
//
// The fault layer is process-global, so none of these tests run in
// parallel, and each disables its schedule in cleanup.

// setRetryBase shortens the compactor's failure backoff so quarantine tests
// converge in milliseconds instead of seconds.
func setRetryBase(sh *shard, d time.Duration) {
	sh.mu.Lock()
	sh.compactRetryBase = d
	sh.mu.Unlock()
}

// holdCompactions installs the test hook that parks every compactor
// goroutine between build completion and landing, returning the release
// function (idempotent: releasing once lets every later compaction through).
func holdCompactions(sh *shard) (release func()) {
	hold := make(chan struct{})
	sh.mu.Lock()
	sh.holdCompaction = hold
	sh.mu.Unlock()
	released := false
	return func() {
		if !released {
			released = true
			close(hold)
		}
	}
}

// churnUntil drives Add/Remove churn until cond is met, failing after max
// iterations. Mutations must succeed (no faults armed on the writer path).
func churnUntil(t *testing.T, ix *Index, rng *rand.Rand, max int, cond func(PublishStats) bool) {
	t.Helper()
	for i := 0; i < max; i++ {
		if cond(ix.PublishStats()) {
			return
		}
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatalf("churn %d: Add: %v", i, err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatalf("churn %d: Remove: %v", i, err)
		}
	}
	t.Fatalf("condition not reached after %d churn iterations: %+v", max, ix.PublishStats())
}

// waitForGoroutines polls until the process goroutine count drops back to
// base (with slack for runtime helpers), dumping stacks on timeout — the
// leak detector for the compactor goroutine.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d running, want <= %d\n%s",
				runtime.NumGoroutine(), base+2, buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// chaosIndex builds the small, churn-friendly index the chaos and compactor
// tests share: tight covering budgets make compaction thresholds reachable
// in tens of mutations.
func chaosIndex(t *testing.T, rng *rand.Rand, n int) *Index {
	t.Helper()
	polys := make([]Polygon, n)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestChaosPublishPipeline is the chaos suite: randomized mutations under a
// randomized (but seed-deterministic, hence replayable) fault schedule
// covering every injection point. Invariants, checked with faults disarmed
// mid-run and at the end: the published snapshot is always byte-identical to
// a from-scratch freeze of the writer state; pinned snapshots never change
// their answers; the writer is fully usable once faults clear; the compactor
// goroutine never leaks. ACTJOIN_CHAOS_SEEDS widens the sweep in CI.
func TestChaosPublishPipeline(t *testing.T) {
	seeds := 6
	if s := os.Getenv("ACTJOIN_CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("ACTJOIN_CHAOS_SEEDS=%q: %v", s, err)
		}
		seeds = n
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			chaosRun(t, seed)
		})
	}
}

func chaosRun(t *testing.T, seed int64) {
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	ix := chaosIndex(t, rng, 20)
	setRetryBase(soleShard(ix), time.Millisecond)
	probes := randPoints(rng, 60)

	sched := fault.RandomSchedule(seed, nil, 12, 8, 0.5)
	fault.Enable(sched)
	t.Cleanup(fault.Disable)

	// check asserts the published/writer equivalence with the schedule
	// disarmed (the reference freeze and serialized comparison must not
	// themselves draw faults), then re-arms it; the schedule's hit counters
	// persist across the gap, so the run stays deterministic.
	check := func(ctx string) {
		t.Helper()
		fault.Disable()
		defer fault.Enable(sched)
		assertSnapshotsEqual(t, ctx, ix.Current(), fullFreeze(ix), probes)
	}

	type pinned struct {
		s       *Snapshot
		answers [][]PolygonID
	}
	var pins []pinned
	pin := func() {
		s := ix.Current()
		answers := make([][]PolygonID, len(probes))
		for i, p := range probes {
			answers[i] = s.Covers(p)
		}
		pins = append(pins, pinned{s: s, answers: answers})
	}
	pin()

	var live []PolygonID
	var faultedOps int
	for op := 0; op < 150; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			id, err := ix.Add(randSquare(rng))
			if err != nil {
				faultedOps++
			} else {
				live = append(live, id)
			}
		case 6:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				if err := ix.Remove(live[i]); err != nil {
					faultedOps++
				} else {
					live = append(live[:i], live[i+1:]...)
				}
			}
		case 7:
			var ids []PolygonID
			err := ix.Apply(func(tx *Tx) error {
				for k := 0; k < 2; k++ {
					id, err := tx.Add(randSquare(rng))
					if err != nil {
						return err
					}
					ids = append(ids, id)
				}
				return nil
			})
			if err != nil {
				faultedOps++
			} else {
				live = append(live, ids...)
			}
		case 8:
			ix.Train(randPoints(rng, 30), 64)
		case 9:
			pin()
		}
		if op%30 == 29 {
			check(fmt.Sprintf("op %d", op))
		}
	}

	fault.Disable()
	t.Logf("seed %d: %d of 150 ops drew a fault, %d faults fired, stats %+v",
		seed, faultedOps, len(sched.Fired()), ix.PublishStats())

	// The writer must be fully usable once faults clear.
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatalf("Add after faults cleared: %v", err)
	}
	assertSnapshotsEqual(t, "final", ix.Current(), fullFreeze(ix), probes)
	validateWriterDirectory(t, ix, "final directory")

	// Pinned snapshots must answer exactly as they did when pinned, however
	// many patches, fallbacks and compactions happened since.
	for pi, pn := range pins {
		for i, p := range probes {
			if got := pn.s.Covers(p); !reflect.DeepEqual(got, pn.answers[i]) {
				t.Fatalf("pin %d probe %d: answers changed from %v to %v", pi, i, pn.answers[i], got)
			}
		}
	}

	waitForSettled(t, soleShard(ix))
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitForGoroutines(t, baseGoroutines)
}

// TestCompactorPanicQuarantine drives a compactor whose every build attempt
// panics: the process must survive, the failures must be counted, and after
// maxCompactorFailures the compactor must quarantine itself — Health reports
// Degraded with the cause, no further compactions start, and publishes
// continue inline.
func TestCompactorPanicQuarantine(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	ix := chaosIndex(t, rng, 40)
	setRetryBase(soleShard(ix), time.Millisecond)

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.CompactBuild, Nth: 1, Times: fault.Forever, Mode: fault.Panic,
	}))
	t.Cleanup(fault.Disable)

	churnUntil(t, ix, rng, 2000, func(st PublishStats) bool { return st.CompactionsStarted >= 1 })

	// The retry loop fails maxCompactorFailures times (1-2-4 ms backoff) and
	// quarantines; poll Health rather than sleeping a magic duration.
	deadline := time.Now().Add(10 * time.Second)
	for ix.Health().State != Degraded {
		if time.Now().After(deadline) {
			t.Fatalf("compactor never quarantined: %+v", ix.PublishStats())
		}
		time.Sleep(time.Millisecond)
	}
	waitForSettled(t, soleShard(ix))

	h := ix.Health()
	if h.State != Degraded || h.Cause == nil {
		t.Fatalf("Health = %+v, want Degraded with cause", h)
	}
	if !strings.Contains(h.Cause.Error(), "quarantined after") {
		t.Fatalf("quarantine cause %q does not name the failure count", h.Cause)
	}
	st := ix.PublishStats()
	if st.CompactionsFailed < maxCompactorFailures {
		t.Fatalf("CompactionsFailed = %d, want >= %d (%+v)", st.CompactionsFailed, maxCompactorFailures, st)
	}
	if st.CompactionsLanded != 0 {
		t.Fatalf("CompactionsLanded = %d, want 0 (%+v)", st.CompactionsLanded, st)
	}

	// Degraded, not broken: mutations keep publishing (inline at threshold
	// crossings), no new compactions start, and the published snapshot stays
	// exact.
	started, full := st.CompactionsStarted, st.Full
	for i := 0; i < 300; i++ {
		id, err := ix.Add(randSquare(rng))
		if err != nil {
			t.Fatalf("degraded Add %d: %v", i, err)
		}
		if err := ix.Remove(id); err != nil {
			t.Fatalf("degraded Remove %d: %v", i, err)
		}
	}
	st = ix.PublishStats()
	if st.CompactionsStarted != started {
		t.Fatalf("quarantined compactor started %d new compactions (%+v)", st.CompactionsStarted-started, st)
	}
	if st.Full <= full {
		t.Fatalf("degraded index never compacted inline: Full stayed %d over 300 churn ops (%+v)", full, st)
	}
	probes := randPoints(rng, 60)
	fault.Disable()
	assertSnapshotsEqual(t, "degraded", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ix.Health().State; got != Closed {
		t.Fatalf("Health after Close = %v, want Closed", got)
	}
}

// TestCompactorRetriesTransientFailures arms two transient build faults: the
// first attempts fail, the retry loop backs off, and the third attempt
// succeeds and lands. Health stays Healthy throughout — transient failures
// below the threshold never degrade the index — and a successful landing
// resets the consecutive-failure count.
func TestCompactorRetriesTransientFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	ix := chaosIndex(t, rng, 40)
	sh := soleShard(ix)
	setRetryBase(sh, time.Millisecond)

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.CompactBuild, Nth: 1, Times: 2, Mode: fault.Error,
	}))
	t.Cleanup(fault.Disable)

	churnUntil(t, ix, rng, 5000, func(st PublishStats) bool { return st.CompactionsLanded >= 1 })
	waitForSettled(t, sh)

	st := ix.PublishStats()
	if st.CompactionsFailed < 2 {
		t.Fatalf("CompactionsFailed = %d, want >= 2 (%+v)", st.CompactionsFailed, st)
	}
	if h := ix.Health(); h.State != Healthy {
		t.Fatalf("Health = %+v, want Healthy after transient failures", h)
	}
	if n := sh.consecCompactFailures.Load(); n != 0 {
		t.Fatalf("consecutive failure count = %d after a successful landing, want 0", n)
	}
	fault.Disable()
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after retries", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// startHeldCompaction drives churn until a compaction is in flight and
// parked on the hold hook, then returns the release function. The caller
// arms its fault rule between return and release, so the fault lands in a
// deterministic phase.
func startHeldCompaction(t *testing.T, ix *Index, rng *rand.Rand) func() {
	t.Helper()
	release := holdCompactions(soleShard(ix))
	churnUntil(t, ix, rng, 2000, func(st PublishStats) bool { return st.CompactionsStarted >= 1 })
	return release
}

// TestCompactSwapFaultDropsCompaction injects a panic in the landing window
// between build completion and the snapshot swap: landGuarded must recover
// it after releasing the mutex, the result is dropped, the failure counted —
// and the writer carries on against the old chain as if the compaction had
// never happened.
func TestCompactSwapFaultDropsCompaction(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	ix := chaosIndex(t, rng, 40)
	release := startHeldCompaction(t, ix, rng)
	defer release()

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.CompactSwap, Nth: 1, Times: 1, Mode: fault.Panic,
	}))
	t.Cleanup(fault.Disable)
	release()
	waitForSettled(t, soleShard(ix))

	st := ix.PublishStats()
	if st.CompactionsFailed < 1 || st.CompactionsLanded != 0 {
		t.Fatalf("swap fault: failed %d landed %d, want >= 1 and 0 (%+v)",
			st.CompactionsFailed, st.CompactionsLanded, st)
	}
	if h := ix.Health(); h.State != Healthy {
		t.Fatalf("Health = %+v, want Healthy after one landing failure", h)
	}
	fault.Disable()
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatalf("Add after dropped landing: %v", err)
	}
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after swap fault", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileFaultAbortsLanding injects an error at the reconcile seam:
// the finished build is abandoned, ReconcileAborts is bumped, and the writer
// keeps patching the old chain.
func TestReconcileFaultAbortsLanding(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	ix := chaosIndex(t, rng, 40)
	release := startHeldCompaction(t, ix, rng)
	defer release()

	// A little post-start churn gives the landing a real replay to apply.
	for i := 0; i < 3; i++ {
		if _, err := ix.Add(randSquare(rng)); err != nil {
			t.Fatal(err)
		}
	}
	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.Reconcile, Nth: 1, Times: 1, Mode: fault.Error,
	}))
	t.Cleanup(fault.Disable)
	release()
	waitForSettled(t, soleShard(ix))

	st := ix.PublishStats()
	if st.ReconcileAborts < 1 || st.CompactionsLanded != 0 {
		t.Fatalf("reconcile fault: aborts %d landed %d, want >= 1 and 0 (%+v)",
			st.ReconcileAborts, st.CompactionsLanded, st)
	}
	fault.Disable()
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after reconcile fault", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileLayoutRefusalAborts makes the fresh base's frozen layout
// refuse the replay patch (the TreePatch seam reports exactly the ok=false
// refusal the real patcher can produce): the reconcile must abort, count
// itself, and leave the writer on the old chain.
func TestReconcileLayoutRefusalAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	ix := chaosIndex(t, rng, 40)
	release := startHeldCompaction(t, ix, rng)
	defer release()

	for i := 0; i < 3; i++ {
		if _, err := ix.Add(randSquare(rng)); err != nil {
			t.Fatal(err)
		}
	}
	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.TreePatch, Nth: 1, Times: fault.Forever, Mode: fault.Error,
	}))
	t.Cleanup(fault.Disable)
	release()
	waitForSettled(t, soleShard(ix))
	fault.Disable() // disarm before the writer patches again

	st := ix.PublishStats()
	if st.ReconcileAborts < 1 || st.CompactionsLanded != 0 {
		t.Fatalf("layout refusal: aborts %d landed %d, want >= 1 and 0 (%+v)",
			st.ReconcileAborts, st.CompactionsLanded, st)
	}
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatalf("Add after refused reconcile: %v", err)
	}
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after layout refusal", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReconcileBudgetExceededAborts lands a compaction whose replay log
// covers the entire covering — more than reconcileMaxDirtyFraction allows —
// and asserts the landing aborts instead of absorbing an unbounded patch.
// The log is stuffed white-box (every live cell as a dirty root) because
// that is the state bulk churn leaves behind, produced deterministically.
func TestReconcileBudgetExceededAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	ix := chaosIndex(t, rng, 40)
	release := startHeldCompaction(t, ix, rng)
	defer release()

	sh := soleShard(ix)
	sh.mu.Lock()
	c := sh.compacting
	if c == nil {
		sh.mu.Unlock()
		t.Fatal("no compaction in flight after churn")
	}
	for _, cell := range sh.sc.Cells() {
		c.replay = append(c.replay, cell.ID)
	}
	sh.mu.Unlock()

	release()
	waitForSettled(t, sh)

	st := ix.PublishStats()
	if st.ReconcileAborts < 1 || st.CompactionsLanded != 0 {
		t.Fatalf("budget overflow: aborts %d landed %d, want >= 1 and 0 (%+v)",
			st.ReconcileAborts, st.CompactionsLanded, st)
	}
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatalf("Add after aborted reconcile: %v", err)
	}
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after budget abort", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedReplayDropsResult poisons the replay log while the build is
// parked (the state a bulk publish leaves behind) and asserts the landing
// discards the result and counts it.
func TestPoisonedReplayDropsResult(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ix := chaosIndex(t, rng, 40)
	release := startHeldCompaction(t, ix, rng)
	defer release()

	sh := soleShard(ix)
	sh.mu.Lock()
	if sh.compacting == nil {
		sh.mu.Unlock()
		t.Fatal("no compaction in flight after churn")
	}
	sh.compacting.replayAll = true
	sh.mu.Unlock()

	release()
	waitForSettled(t, sh)

	st := ix.PublishStats()
	if st.ReplayPoisoned < 1 || st.CompactionsLanded != 0 {
		t.Fatalf("poisoned replay: poisoned %d landed %d, want >= 1 and 0 (%+v)",
			st.ReplayPoisoned, st.CompactionsLanded, st)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPublishPanicFallsBackToFullFreeze panics inside the incremental patch
// machinery (the encoder commit): the writer must recover, count the panic,
// and serve the very same mutation through the inline full freeze — the
// caller sees a successful Add and an exact snapshot, never an error, never
// a torn table.
func TestPublishPanicFallsBackToFullFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	ix := chaosIndex(t, rng, 10)
	before := ix.PublishStats()

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.EncoderCommit, Nth: 1, Times: 1, Mode: fault.Panic,
	}))
	t.Cleanup(fault.Disable)

	id, err := ix.Add(randSquare(rng))
	if err != nil {
		t.Fatalf("Add with commit panic: %v (the fallback must absorb it)", err)
	}
	fault.Disable()

	st := ix.PublishStats()
	if st.PublishPanics != before.PublishPanics+1 {
		t.Fatalf("PublishPanics = %d, want %d (%+v)", st.PublishPanics, before.PublishPanics+1, st)
	}
	if st.Full != before.Full+1 {
		t.Fatalf("Full = %d, want %d — the panicked publish must fall back to the full freeze (%+v)",
			st.Full, before.Full+1, st)
	}
	if ix.Current().Removed(id) {
		t.Fatalf("polygon %d missing from the fallback snapshot", id)
	}
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after commit panic", ix.Current(), fullFreeze(ix), probes)

	// The next publish goes down the full path once more (the encoder was
	// conservatively replaced), then incremental publishing resumes.
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatal(err)
	}
	assertSnapshotsEqual(t, "next publish", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFullFreezeFaultRollsBackMutation fails the fallback of last resort
// itself: the mutation must return the error, the published snapshot must be
// untouched (same pointer), the staged writer state rolled back — and the
// writer must succeed again once the fault clears.
func TestFullFreezeFaultRollsBackMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	polys := make([]Polygon, 5)
	for i := range polys {
		polys[i] = randSquare(rng)
	}
	// Full publishes only: every Add goes straight down the path under test.
	ix, err := NewIndex(polys, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	withShards(ix, func(sh *shard) { sh.fullPublish = true })
	prev := ix.Current()

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.FullFreeze, Nth: 1, Times: 1, Mode: fault.Error,
	}))
	t.Cleanup(fault.Disable)

	if _, err := ix.Add(randSquare(rng)); err == nil {
		t.Fatal("Add with a failing full freeze returned nil error")
	} else if !strings.Contains(err.Error(), "publish failed") {
		t.Fatalf("Add error %q does not surface the publish failure", err)
	}
	if got := ix.Current(); got != prev {
		t.Fatal("failed publish replaced the published snapshot")
	}
	if got := ix.Current().NumPolygons(); got != 5 {
		t.Fatalf("failed Add leaked a polygon: snapshot has %d, want 5", got)
	}
	if st := ix.PublishStats(); st.PublishPanics < 1 {
		t.Fatalf("PublishPanics = %d, want >= 1 (%+v)", st.PublishPanics, st)
	}

	// Rule exhausted: the writer must be whole again.
	id, err := ix.Add(randSquare(rng))
	if err != nil {
		t.Fatalf("Add after fault cleared: %v", err)
	}
	if ix.Current().Removed(id) {
		t.Fatal("recovered Add not visible in the published snapshot")
	}
	fault.Disable()
	probes := randPoints(rng, 60)
	assertSnapshotsEqual(t, "after recovery", ix.Current(), fullFreeze(ix), probes)
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNewIndexSurfacesPublishFault: a first publish that fails must surface
// as a constructor error, not a half-built index.
func TestNewIndexSurfacesPublishFault(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.FullFreeze, Nth: 1, Times: 1, Mode: fault.Panic,
	}))
	t.Cleanup(fault.Disable)
	if _, err := NewIndex([]Polygon{randSquare(rng)}); err == nil {
		t.Fatal("NewIndex with a failing first publish returned nil error")
	}
}

// TestApplyRollsBackOnPublishFault: a transaction whose single publish fails
// must discard the whole batch — ids void, snapshot untouched — and leave
// the writer consistent.
func TestApplyRollsBackOnPublishFault(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	ix := chaosIndex(t, rng, 10)
	prev := ix.Current()
	probes := randPoints(rng, 60)

	// Panic at EncoderCommit sends the incremental attempt to the full
	// freeze; the second rule fails that too, so the publish as a whole
	// errors and Apply must roll back.
	fault.Enable(fault.NewSchedule(
		fault.Rule{Point: fault.EncoderCommit, Nth: 1, Times: 1, Mode: fault.Panic},
		fault.Rule{Point: fault.FullFreeze, Nth: 1, Times: 1, Mode: fault.Error},
	))
	t.Cleanup(fault.Disable)

	err := ix.Apply(func(tx *Tx) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.Add(randSquare(rng)); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("Apply with a doomed publish returned nil error")
	}
	fault.Disable()
	if got := ix.Current(); got != prev {
		t.Fatal("failed Apply replaced the published snapshot")
	}
	if got := ix.Current().NumPolygons(); got != 10 {
		t.Fatalf("failed Apply leaked polygons: snapshot has %d, want 10", got)
	}
	if _, err := ix.Add(randSquare(rng)); err != nil {
		t.Fatalf("Add after failed Apply: %v", err)
	}
	assertSnapshotsEqual(t, "after rollback", ix.Current(), fullFreeze(ix), probes)
	validateWriterDirectory(t, ix, "after rollback")
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseLifecycle covers the shutdown contract: mutations fail with
// ErrClosed, Train degrades to a no-op, Health reports Closed, queries on
// the last published snapshot keep working, and Close is idempotent.
func TestCloseLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	ix := chaosIndex(t, rng, 10)
	last := ix.Current()

	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := ix.Add(randSquare(rng)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close = %v, want ErrClosed", err)
	}
	if err := ix.Remove(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Remove after Close = %v, want ErrClosed", err)
	}
	if err := ix.Apply(func(tx *Tx) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if st := ix.Train(randPoints(rng, 10), 8); st != (TrainStats{}) {
		t.Fatalf("Train after Close = %+v, want zero stats", st)
	}
	h := ix.Health()
	if h.State != Closed || !errors.Is(h.Cause, ErrClosed) {
		t.Fatalf("Health after Close = %+v", h)
	}
	if ix.Current() != last {
		t.Fatal("Close disturbed the published snapshot")
	}
	if got := last.Covers(randPoints(rng, 1)[0]); got == nil && false {
		_ = got // queries must not panic; the result itself is data-dependent
	}
	if err := ix.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestCloseCancelsBackoffWait arms a transient build failure with a huge
// retry base, so the compactor goroutine is parked deep in a backoff sleep —
// Close must wake it through the cancel channel and return promptly instead
// of waiting out the backoff.
func TestCloseCancelsBackoffWait(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	ix := chaosIndex(t, rng, 40)
	setRetryBase(soleShard(ix), 30*time.Second)

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.CompactBuild, Nth: 1, Times: 1, Mode: fault.Error,
	}))
	t.Cleanup(fault.Disable)

	churnUntil(t, ix, rng, 2000, func(st PublishStats) bool { return st.CompactionsFailed >= 1 })
	fault.Disable()

	start := time.Now()
	if err := ix.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("Close took %v — the cancel channel must wake the backoff sleep", d)
	}
}

// TestNoGoroutineLeakAcrossLifecycles cycles build → churn (with real
// compactions) → Close several times and asserts the goroutine count
// returns to baseline: the compactor goroutine must always drain, whether
// its compaction landed, was abandoned, or was cancelled mid-build.
func TestNoGoroutineLeakAcrossLifecycles(t *testing.T) {
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(84))
	for cycle := 0; cycle < 4; cycle++ {
		ix := chaosIndex(t, rng, 40)
		churnUntil(t, ix, rng, 2000, func(st PublishStats) bool { return st.CompactionsStarted >= 1 })
		// Close with the compaction possibly mid-build: cancellation must
		// reach it wherever it is.
		if err := ix.Close(); err != nil {
			t.Fatalf("cycle %d: Close: %v", cycle, err)
		}
		waitForGoroutines(t, base)
	}
}

// ---------------------------------------------------------------------------
// Sharded failure domains: a shard is its own failure domain. A quarantined
// compactor degrades its shard (and the composed health) without touching its
// siblings; a fault in the middle of a cross-shard commit rewinds every shard
// that had already published; and the randomized chaos schedule — which now
// includes the ShardCommit seam — must leave every shard byte-identical to a
// from-scratch freeze and the composed stream round-trippable.

// shardedChaosIndex builds the two-cluster sharded fixture the shard chaos
// tests share: two well-separated polygon clusters give the router a split it
// cannot miss, and the tight covering budgets make per-shard compaction
// thresholds reachable in tens of mutations.
func shardedChaosIndex(t *testing.T, rng *rand.Rand) (*Index, []Polygon) {
	t.Helper()
	var polys []Polygon
	for i := 0; i < 20; i++ {
		polys = append(polys, clusterSquare(rng, 0), clusterSquare(rng, 1))
	}
	// Exactly two shards: the median split point falls between the clusters,
	// so each cluster maps entirely onto one shard and cluster-targeted churn
	// exercises exactly one failure domain. (More shards would subdivide the
	// clusters themselves.)
	six, err := NewShardedIndex(polys, 2, WithCoveringBudget(8, 16))
	if err != nil {
		t.Fatal(err)
	}
	if six.NumShards() != 2 {
		t.Fatalf("two-cluster fixture produced %d shard(s), want 2", six.NumShards())
	}
	for _, sh := range six.shards {
		setRetryBase(sh, time.Millisecond)
	}
	return six, polys
}

// polyCenter returns the center of one of the axis-aligned test squares.
func polyCenter(p Polygon) Point {
	r := p.Exterior
	return Point{Lon: (r[0].Lon + r[2].Lon) / 2, Lat: (r[0].Lat + r[2].Lat) / 2}
}

// shardOwning returns the shard whose key range holds p, found by probing the
// per-shard snapshots: the covering is disjoint and ranges contiguous, so
// exactly one shard answers for any covered point.
func shardOwning(t *testing.T, six *Index, p Point) int {
	t.Helper()
	for si, sh := range six.Current().shards {
		if len(shardView(sh).Covers(p)) > 0 {
			return si
		}
	}
	t.Fatalf("no shard covers (%v, %v)", p.Lon, p.Lat)
	return -1
}

// TestShardQuarantineIsolation panics every compactor build while churning
// exactly one shard's key range: that shard must quarantine itself, the
// composed Health must report the degradation with per-shard attribution, the
// sibling shards must keep publishing unharmed — and once faults clear, every
// shard (including the degraded one) must rebuild byte-identically.
func TestShardQuarantineIsolation(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(91))
	six, polys := shardedChaosIndex(t, rng)
	target := shardOwning(t, six, polyCenter(polys[0]))  // polys[0] is in cluster 0
	sibling := shardOwning(t, six, polyCenter(polys[1])) // polys[1] is in cluster 1
	if target == sibling {
		t.Fatalf("both clusters landed on shard %d; the fixture must split them", target)
	}

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.CompactBuild, Nth: 1, Times: fault.Forever, Mode: fault.Panic,
	}))
	t.Cleanup(fault.Disable)

	// Churn only cluster 0: every compaction the fault can reach belongs to
	// the target shard, so only it can quarantine.
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; six.shards[target].health().State != Degraded; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("target shard never quarantined after %d churn ops: %+v",
				i, six.shards[target].publishStats())
		}
		id, err := six.Add(clusterSquare(rng, 0))
		if err != nil {
			t.Fatalf("churn %d: Add: %v", i, err)
		}
		if err := six.Remove(id); err != nil {
			t.Fatalf("churn %d: Remove(%d): %v", i, id, err)
		}
	}
	fault.Disable()
	waitForSettled(t, six.shards[target])

	h := six.Health()
	if h.State != Degraded || h.Cause == nil {
		t.Fatalf("composed Health = %+v, want Degraded with the shard's cause", h)
	}
	if len(h.Shards) != six.NumShards() {
		t.Fatalf("Health reports %d shards, want %d", len(h.Shards), six.NumShards())
	}
	for si, sh := range h.Shards {
		if si == target {
			if sh.State != Degraded || sh.Cause == nil {
				t.Fatalf("target shard %d Health = %+v, want Degraded with cause", si, sh)
			}
		} else if sh.State != Healthy {
			t.Fatalf("shard %d dragged to %v by shard %d's quarantine", si, sh.State, target)
		}
	}

	// The sibling's failure domain is untouched: it keeps publishing with no
	// failures while the target stays quarantined.
	before := six.shards[sibling].publishStats()
	for i := 0; i < 50; i++ {
		id, err := six.Add(clusterSquare(rng, 1))
		if err != nil {
			t.Fatalf("sibling Add %d during quarantine: %v", i, err)
		}
		if err := six.Remove(id); err != nil {
			t.Fatalf("sibling Remove %d during quarantine: %v", i, err)
		}
	}
	waitForSettled(t, six.shards[sibling])
	after := six.shards[sibling].publishStats()
	if after.CompactionsFailed != before.CompactionsFailed {
		t.Fatalf("sibling compactor failed during the target's quarantine: %+v -> %+v", before, after)
	}
	if after.Patched+after.Full <= before.Patched+before.Full {
		t.Fatalf("sibling stopped publishing during the target's quarantine: %+v -> %+v", before, after)
	}
	if got := six.shards[target].health().State; got != Degraded {
		t.Fatalf("target shard recovered to %v without intervention", got)
	}

	// Recovery: every shard — quarantined or not — rebuilds byte-identically,
	// and the composed stream round-trips through a one-shard load.
	probes := randPoints(rng, 60)
	for si, sh := range six.shards {
		assertSnapshotsEqual(t, fmt.Sprintf("shard %d rebuild", si), shardView(sh.Current()), shardView(freezeShard(sh)), probes)
	}
	var buf bytes.Buffer
	if _, err := six.Current().WriteTo(&buf); err != nil {
		t.Fatalf("composed WriteTo: %v", err)
	}
	loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadIndexFrom(composed bytes): %v", err)
	}
	var back bytes.Buffer
	if _, err := loaded.Current().WriteTo(&back); err != nil {
		t.Fatalf("round-trip WriteTo: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), back.Bytes()) {
		t.Fatal("composed stream does not round-trip byte-identically")
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	if err := six.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := six.Health().State; got != Closed {
		t.Fatalf("composed Health after Close = %v, want Closed", got)
	}
	waitForGoroutines(t, baseGoroutines)
}

// TestShardCommitRollback fails the second shard of a cross-shard commit at
// the ShardCommit seam: Apply must surface the error, the first shard's
// already-published part must be rewound (the composed state byte-identical
// to before the attempt), the reserved ids must be void — and the identical
// batch must commit cleanly once the fault clears, reusing those ids.
func TestShardCommitRollback(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	six, _ := shardedChaosIndex(t, rng)
	defer six.Close()
	probes := randPoints(rng, 60)

	var before bytes.Buffer
	if _, err := six.Current().WriteTo(&before); err != nil {
		t.Fatal(err)
	}
	base := six.Current().NumPolygons()
	pinned := six.Current()
	pinnedAnswers := make([][]PolygonID, len(probes))
	for i, p := range probes {
		pinnedAnswers[i] = pinned.Covers(p)
	}

	// One polygon per cluster: the staged batch spans two shards, so the
	// commit hits the ShardCommit seam twice and the Nth=2 rule fails the
	// second shard after the first has already published.
	addA, addB := clusterSquare(rng, 0), clusterSquare(rng, 1)
	apply := func() ([]PolygonID, error) {
		var ids []PolygonID
		err := six.Apply(func(tx *Tx) error {
			for _, p := range []Polygon{addA, addB} {
				id, err := tx.Add(p)
				if err != nil {
					return err
				}
				ids = append(ids, id)
			}
			return nil
		})
		return ids, err
	}

	fault.Enable(fault.NewSchedule(fault.Rule{
		Point: fault.ShardCommit, Nth: 2, Times: 1, Mode: fault.Error,
	}))
	t.Cleanup(fault.Disable)
	if _, err := apply(); err == nil {
		t.Fatal("Apply with a failing second shard commit returned nil error")
	}
	fault.Disable()

	var after bytes.Buffer
	if _, err := six.Current().WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("failed cross-shard commit left a partial publish behind")
	}
	if got := six.Current().NumPolygons(); got != base {
		t.Fatalf("failed Apply leaked id slots: %d polygons, want %d", got, base)
	}
	for i, p := range probes {
		if got := pinned.Covers(p); !reflect.DeepEqual(got, pinnedAnswers[i]) {
			t.Fatalf("probe %d: pinned snapshot changed from %v to %v across the rollback",
				i, pinnedAnswers[i], got)
		}
	}

	// The voided ids are reused and the very same batch lands everywhere.
	ids, err := apply()
	if err != nil {
		t.Fatalf("Apply after fault cleared: %v", err)
	}
	if len(ids) != 2 || ids[0] != PolygonID(base) || ids[1] != PolygonID(base+1) {
		t.Fatalf("recommit ids = %v, want [%d %d] (the rollback must unreserve)", ids, base, base+1)
	}
	s := six.Current()
	if s.Removed(ids[0]) || s.Removed(ids[1]) {
		t.Fatalf("recommitted batch not visible: Removed = %v, %v", s.Removed(ids[0]), s.Removed(ids[1]))
	}
	for si, sh := range six.shards {
		assertSnapshotsEqual(t, fmt.Sprintf("shard %d after recommit", si), shardView(sh.Current()), shardView(freezeShard(sh)), probes)
	}
}

// TestShardedChaos is the chaos suite run against the sharded engine: the
// randomized fault schedule (which draws from every injection point,
// including ShardCommit) fires under randomized single- and cross-shard
// mutations. Invariants, checked with faults disarmed mid-run and at the end:
// every shard is byte-identical to a from-scratch freeze of its writer state,
// the composed serialization round-trips through a one-shard load, pinned
// composed snapshots never change their answers, and Close leaks nothing.
func TestShardedChaos(t *testing.T) {
	seeds := 3
	if s := os.Getenv("ACTJOIN_CHAOS_SEEDS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("ACTJOIN_CHAOS_SEEDS=%q: %v", s, err)
		}
		seeds = n
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shardedChaosRun(t, seed)
		})
	}
}

func shardedChaosRun(t *testing.T, seed int64) {
	baseGoroutines := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(seed))
	six, _ := shardedChaosIndex(t, rng)
	probes := randPoints(rng, 60)

	sched := fault.RandomSchedule(seed+100, nil, 12, 8, 0.5)
	fault.Enable(sched)
	t.Cleanup(fault.Disable)

	check := func(ctx string) {
		t.Helper()
		fault.Disable()
		defer fault.Enable(sched)
		for si, sh := range six.shards {
			assertSnapshotsEqual(t, fmt.Sprintf("%s shard %d", ctx, si), shardView(sh.Current()), shardView(freezeShard(sh)), probes)
		}
		var buf bytes.Buffer
		if _, err := six.Current().WriteTo(&buf); err != nil {
			t.Fatalf("%s: composed WriteTo: %v", ctx, err)
		}
		loaded, err := ReadIndexFrom(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: ReadIndexFrom: %v", ctx, err)
		}
		var back bytes.Buffer
		if _, err := loaded.Current().WriteTo(&back); err != nil {
			t.Fatalf("%s: round-trip WriteTo: %v", ctx, err)
		}
		if !bytes.Equal(buf.Bytes(), back.Bytes()) {
			t.Fatalf("%s: composed stream does not round-trip byte-identically", ctx)
		}
		if err := loaded.Close(); err != nil {
			t.Fatal(err)
		}
	}

	type pinnedView struct {
		s       *Snapshot
		answers [][]PolygonID
	}
	var pins []pinnedView
	pin := func() {
		s := six.Current()
		answers := make([][]PolygonID, len(probes))
		for i, p := range probes {
			answers[i] = s.Covers(p)
		}
		pins = append(pins, pinnedView{s: s, answers: answers})
	}
	pin()

	var live []PolygonID
	var faultedOps int
	for op := 0; op < 120; op++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3, 4:
			id, err := six.Add(clusterSquare(rng, rng.Intn(2)))
			if err != nil {
				faultedOps++
			} else {
				live = append(live, id)
			}
		case 5, 6:
			if len(live) > 0 {
				i := rng.Intn(len(live))
				if err := six.Remove(live[i]); err != nil {
					faultedOps++
				} else {
					live = append(live[:i], live[i+1:]...)
				}
			}
		case 7:
			var ids []PolygonID
			err := six.Apply(func(tx *Tx) error {
				for k := 0; k < 2; k++ {
					id, err := tx.Add(clusterSquare(rng, k))
					if err != nil {
						return err
					}
					ids = append(ids, id)
				}
				return nil
			})
			if err != nil {
				faultedOps++
			} else {
				live = append(live, ids...)
			}
		case 8:
			six.Train(randPoints(rng, 30), 64)
		case 9:
			pin()
		}
		if op%40 == 39 {
			check(fmt.Sprintf("op %d", op))
		}
	}

	fault.Disable()
	t.Logf("seed %d: %d of 120 ops drew a fault, %d faults fired, composed stats %+v",
		seed, faultedOps, len(sched.Fired()), six.PublishStats())

	if _, err := six.Add(clusterSquare(rng, 0)); err != nil {
		t.Fatalf("Add after faults cleared: %v", err)
	}
	check("final")

	for pi, pn := range pins {
		for i, p := range probes {
			if got := pn.s.Covers(p); !reflect.DeepEqual(got, pn.answers[i]) {
				t.Fatalf("pin %d probe %d: answers changed from %v to %v", pi, i, pn.answers[i], got)
			}
		}
	}

	for _, sh := range six.shards {
		waitForSettled(t, sh)
	}
	if err := six.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	waitForGoroutines(t, baseGoroutines)
}

// TestHealthStateString pins the operator-facing names.
func TestHealthStateString(t *testing.T) {
	for st, want := range map[HealthState]string{
		Healthy: "healthy", Degraded: "degraded", Closed: "closed", HealthState(99): "unknown",
	} {
		if got := st.String(); got != want {
			t.Fatalf("HealthState(%d).String() = %q, want %q", st, got, want)
		}
	}
}
