package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"time"
)

// Window shares. A join workload alternates the closed-loop reader
// (batches with per-point lookups interleaved) and open-loop publishes
// with no reader (the writer-only control for churn-mixed), joinCycles
// times, so both see the host's good and bad stretches alike. churn-mixed
// runs the writer for the whole window beside the reader. The lookup
// shares are of the reader's busy time.
const (
	joinCycles       = 6
	joinReadShare    = 0.63
	joinPublishShare = 0.37
	joinLookupShare  = 0.13
	mixedLookupShare = 0.25
	// A traced run measures each phase untraced first, then traced; the
	// untraced part gives the runtime metrics and the tracing overhead.
	untracedShare = 0.4
	// In a traced churn-mixed run the first part of the untraced share
	// runs the reader alone, to separate reader and writer allocations.
	readerOnlyShare = 0.25
	// tracedSlowdown divides the publish rate of every writer of a traced
	// run.
	tracedSlowdown = 3
)

// Setup repeats: at least minSetups builds and until setupBudget has passed,
// at most maxSetups. setup_s is their median.
const (
	minSetups   = 3
	maxSetups   = 61
	setupBudget = 3 * time.Second
)

// config is one invocation of the benchmark.
type config struct {
	w        workload
	seed     int64
	polySeed int64
	seconds  float64
	trace    bool
	traceDir string // where a traced run writes its spans
}

// runner holds the state of one run.
type runner struct {
	cfg    config
	in     inputs
	exp    *expectation
	eng    *engine
	sh     *shadow // traced runs only
	origin time.Time

	// Writer state, touched only by the goroutine running the writer.
	adds    int        // Adds issued so far; the next Add inserts square adds%squarePool
	live    int64      // id of the square currently in the index, -1 for none
	pending []mutation // published but not yet replayed through the shadow
}

// readTotals accumulates what a reader measured and checked.
type readTotals struct {
	checker
	tracer    *tracer // nil when untraced
	batchMs   []float64
	points    int64
	busy      time.Duration
	reported  time.Duration // summed JoinResult.Duration
	pipTests  int64
	cacheHits int64
	lookBusy  time.Duration
	chunks    int       // lookup chunks run
	chunkMops []float64 // throughput of each lookup chunk
	windows   []window  // batches grouped by a second of JoinCount time
	jt        joinTotals
}

// window is a stretch of consecutive batches with about one second of
// JoinCount time.
type window struct {
	points int
	busy   time.Duration
}

// addWindow books one batch into the current window, opening a new window
// once the current one holds a second of JoinCount time.
func (rt *readTotals) addWindow(points int, busy time.Duration) {
	if n := len(rt.windows); n == 0 || rt.windows[n-1].busy >= time.Second {
		rt.windows = append(rt.windows, window{})
	}
	w := &rt.windows[len(rt.windows)-1]
	w.points += points
	w.busy += busy
}

// writeTotals accumulates what the writer measured and checked.
type writeTotals struct {
	checker
	tracer    *tracer // nil when untraced
	samples   []opSample
	publicMs  []float64 // public Add/Remove wall time, without replays
	mt        mutationTotals
	orphanSum float64
	orphanN   int
	window    time.Duration
	indexMB   []float64 // index size after each publish
}

// result is the outcome of one run.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           metricSet
	notes             []string
}

// execute runs one workload end to end. Its phases pin a new snapshot per
// batch, lookup chunk, publish and check on purpose: observing the index
// as it changes is what the run measures.
//
//act:refresh
func execute(cfg config) (*result, error) {
	r := &runner{cfg: cfg, live: -1, origin: time.Now()}
	res := &result{metrics: metricSet{}}
	var ck checker

	stage := time.Now()
	lap := func(what string) {
		res.notes = append(res.notes, fmt.Sprintf("stage %s took %.2f s", what, time.Since(stage).Seconds()))
		stage = time.Now()
	}
	r.in = generate(cfg.seed, cfg.polySeed)
	lap("generate")
	setupS, base, err := r.setup(&ck)
	if err != nil {
		return nil, err
	}
	heapSetup := liveHeapMB() - base
	lap("setup")

	if cfg.trace {
		r.sh = buildShadow(r.in.polys, precisionMeters)
		lap("shadow")
		ck.attempted++
		if err := r.sh.checkFidelity(r.eng.pin().stats().cells); err != nil {
			ck.fail("%v", err)
		}
	}
	ps0 := r.eng.publishStats()

	var rd readTotals
	var wr, setupW writeTotals // setupW: untimed warm-up and drain publishes
	var un untraced
	R := time.Duration(cfg.seconds * float64(time.Second))
	traced := func(role string) *tracer { return newTracer(role, r.origin) }
	// Every square is added and removed once before anything is measured:
	// the first visit of a square refines the cells around it for good.
	r.warm(&setupW)
	r.catchUp(&ck)
	switch {
	case !cfg.w.mixed && !cfg.trace:
		for c := 0; c < joinCycles; c++ {
			r.reads(R, joinReadShare/joinCycles, joinLookupShare, nil, &rd)
			r.writer(R, joinPublishShare/joinCycles, nil, &wr)
		}
	case !cfg.w.mixed:
		rt0 := readRuntime()
		r.reads(R, joinReadShare*untracedShare, 0, nil, &un.rd)
		un.readRT.add(rt0, readRuntime())
		r.reads(R, joinReadShare*(1-untracedShare), 0, traced("reader"), &rd)
		rt0 = readRuntime()
		r.writer(R, joinPublishShare*untracedShare, nil, &un.wr)
		un.writeRT.add(rt0, readRuntime())
		r.catchUp(&ck)
		r.writer(R, joinPublishShare*(1-untracedShare), traced("writer"), &wr)
	case !cfg.trace:
		r.mixed(R, mixedLookupShare, nil, nil, &rd, &wr)
	default:
		rt0 := readRuntime()
		r.reads(R, untracedShare*readerOnlyShare, 0, nil, &un.rd)
		rt1 := readRuntime()
		un.readRT.add(rt0, rt1)
		r.mixed(time.Duration(float64(R)*untracedShare*(1-readerOnlyShare)), 0, nil, nil, &un.mixed, &un.wr)
		un.writeRT.add(rt1, readRuntime())
		r.catchUp(&ck)
		r.mixed(time.Duration(float64(R)*(1-untracedShare)), 0, traced("reader"), traced("writer"), &rd, &wr)
	}
	lap("measure")
	r.drain(&setupW)
	r.catchUp(&ck)

	r.exp.checkQuiescent(r.eng, &r.in, &ck)
	heapRun := liveHeapMB() - base
	ps1 := r.eng.publishStats()
	lap("check")

	m := res.metrics
	if !cfg.trace {
		res.addNote(r.endToEnd(m, &rd, &wr, setupS, heapRun))
		res.notes = append(res.notes, fmt.Sprintf("heap after setup %.1f MB, after run %.1f MB", heapSetup, heapRun))
	} else {
		res.addNote(r.perLayer(m, &rd, &wr, &un, ps0, ps1))
		path := filepath.Join(cfg.traceDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
		if err := writeSpans(path, rd.tracer, wr.tracer); err != nil {
			return nil, err
		}
		res.notes = append(res.notes, "spans written to "+path)
	}
	if err := r.eng.close(); err != nil {
		ck.attempted++
		ck.fail("close: %v", err)
	}

	ck.merge(&rd.checker)
	ck.merge(&wr.checker)
	ck.merge(&setupW.checker)
	ck.merge(&un.rd.checker)
	ck.merge(&un.mixed.checker)
	ck.merge(&un.wr.checker)
	res.attempted, res.failed = ck.attempted, ck.failed
	res.correct = ck.failed == 0
	res.notes = append(res.notes, ck.problems...)
	res.notes = append(res.notes, fmt.Sprintf("error_frac %.6g (%d failed of %d attempted)", float64(ck.failed)/float64(max(ck.attempted, 1)), ck.failed, ck.attempted))
	return res, nil
}

func (res *result) addNote(s []string) { res.notes = append(res.notes, s...) }

// setup builds the public index repeatedly and keeps the last build. The
// first build also yields the reference answers; the live heap is measured
// after it is closed, as the baseline the heap metrics subtract.
func (r *runner) setup(ck *checker) (secs []float64, baseMB float64, err error) {
	start := time.Now()
	for {
		t0 := time.Now()
		e, err := newEngine(r.in.polys, shardCount, precisionMeters)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
		if r.exp == nil {
			t := time.Now()
			r.exp = expect(e, r.in, ck)
			start = start.Add(time.Since(t)) // the reference answers are not set-up
		}
		if len(secs) >= maxSetups || len(secs) >= minSetups && time.Since(start) >= setupBudget {
			r.eng = e
			return secs, baseMB, nil
		}
		if err := e.close(); err != nil {
			return nil, 0, fmt.Errorf("close setup build: %w", err)
		}
		if len(secs) == 1 {
			baseMB = liveHeapMB()
		}
	}
}

// reads runs the closed-loop reader for its share of R, with the writer
// stopped, so the live churn square is known; see readUntil.
func (r *runner) reads(R time.Duration, share, lookupShare float64, tr *tracer, rt *readTotals) {
	r.readUntil(time.Now().Add(time.Duration(float64(R)*share)), r.live, lookupShare, tr, rt)
}

// readUntil runs the closed-loop reader until stop. Each round pins one
// snapshot and joins one batch, then runs per-point Covers chunks (one
// pinned snapshot each) until lookups hold lookupShare of the reader's
// busy time; spreading lookups over the whole window, instead of a phase
// of their own, makes them see the same host conditions as the batches.
// Answers are checked after each timer stops, against live, the id of the
// churn square in the index (-1 for none, liveUnknown while the writer
// runs). With a tracer, every batch is replayed through the shadow and no
// lookups run.
//
//act:refresh
func (r *runner) readUntil(stop time.Time, live int64, lookupShare float64, tr *tracer, rt *readTotals) {
	rt.tracer = tr
	var scratch replayScratch
	results := make([][]uint32, lookupChunk)
	shards := r.eng.numShards()
	for k := 0; time.Now().Before(stop); k++ {
		b := k % poolBatches
		v := r.eng.pin()
		t0 := time.Now()
		out := v.joinCount(r.in.batch[b], r.cfg.w.threads)
		t1 := time.Now()
		rt.attempted++
		rt.batchMs = append(rt.batchMs, ms(t1.Sub(t0)))
		rt.points += int64(len(r.in.batch[b]))
		rt.busy += t1.Sub(t0)
		rt.reported += out.reported
		rt.pipTests += out.pipTests
		rt.cacheHits += out.cacheHits
		rt.addWindow(len(r.in.batch[b]), t1.Sub(t0))
		r.exp.checkCounts(b, out.counts, live, &rt.checker)
		if tr != nil {
			seq := int32(len(rt.batchMs) - 1)
			id := tr.add("actjoin.JoinCount", -1, seq, t0, t1)
			r.sh.view.Load().replayBatch(tr, id, seq, r.in.gbatch[b], r.eng.shardOf, shards, r.cfg.w.threads, &scratch, &rt.jt)
			continue
		}
		for float64(rt.lookBusy) < lookupShare/(1-lookupShare)*float64(rt.busy) && time.Now().Before(stop) {
			r.lookupChunk(results, live, rt)
		}
	}
}

// lookupChunk runs the reader's next chunk of single-threaded Covers calls
// over the point pool.
func (r *runner) lookupChunk(results [][]uint32, live int64, rt *readTotals) {
	pos := (rt.chunks * lookupChunk) % (poolBatches * batchPoints)
	rt.chunks++
	b, i0 := pos/batchPoints, pos%batchPoints
	pts := r.in.batch[b][i0 : i0+lookupChunk]
	v := r.eng.pin()
	t0 := time.Now()
	for j, p := range pts {
		results[j] = v.covers(p)
	}
	d := time.Since(t0)
	rt.lookBusy += d
	rt.chunkMops = append(rt.chunkMops, float64(len(pts))/d.Seconds()/1e6)
	for j := range pts {
		rt.attempted++
		r.exp.checkAnswer(&r.in, b, i0+j, results[j], live, &rt.checker)
	}
}

// mixed runs the open-loop writer for d beside the closed-loop reader. The
// reader re-pins the snapshot per batch or chunk, as the writer publishes.
//
//act:refresh
func (r *runner) mixed(d time.Duration, lookupShare float64, rtr, wtr *tracer, rt *readTotals, wt *writeTotals) {
	start := time.Now()
	stop := start.Add(d)
	done := make(chan struct{})
	//act:norecover benchmark writer over the public API; a panic aborts the run, which is the correct outcome
	go func() {
		defer close(done)
		r.writerUntil(start, stop, wtr, wt)
	}()
	r.readUntil(stop, liveUnknown, lookupShare, rtr, rt)
	<-done
}

// writer runs the open-loop writer alone for its share of R.
func (r *runner) writer(R time.Duration, share float64, tr *tracer, wt *writeTotals) {
	start := time.Now()
	r.writerUntil(start, start.Add(time.Duration(float64(R)*share)), tr, wt)
}

// writerUntil issues publishRate publishes per second from start until
// stop, alternating an Add of the next churn square and its Remove.
func (r *runner) writerUntil(start, stop time.Time, tr *tracer, wt *writeTotals) {
	wt.tracer = tr
	clk := wallClock{origin: r.origin}
	interval := time.Second / publishRate
	if r.cfg.trace {
		// Inline replays roughly double a publish's cost; a traced run's
		// writers run slower so the replays do not turn into a backlog. Its
		// untraced writer runs at the same rate, so the two compare
		// publishes under the same load.
		interval *= tracedSlowdown
	}
	samples, missed := openLoop(clk, start.Sub(r.origin), interval, stop.Sub(r.origin), func(int) {
		r.step(tr, wt)
	})
	wt.samples = append(wt.samples, samples...)
	wt.window += stop.Sub(start)
	for i := 0; i < missed; i++ {
		wt.attempted++
		wt.fail("publish missed: backlog outlasted the window")
	}
}

// warm adds and removes every churn square once, untimed, so the measured
// publishes see the index in its churn steady state (the first visit of a
// square refines the cells around it for good).
func (r *runner) warm(wt *writeTotals) {
	for i := 0; i < 2*squarePool; i++ {
		r.step(nil, wt)
	}
}

// drain removes the square left live by the last Add, untimed.
func (r *runner) drain(wt *writeTotals) {
	if r.live >= 0 {
		r.step(nil, wt)
	}
}

// mutation is one public publish the shadow has to follow.
type mutation struct {
	adding bool
	square int
	id     uint32
	seq    int32
	t0, t1 time.Time // the public call
}

// step issues the writer's next mutation — an Add when no square is live,
// else the Remove of the live one. With a shadow, the mutation is replayed
// through it: right away under the tracer, or, without one, queued for
// catchUp so untraced windows carry no replay work.
func (r *runner) step(tr *tracer, wt *writeTotals) {
	wt.attempted++
	m := mutation{adding: r.live < 0, square: r.adds % squarePool, seq: int32(len(wt.publicMs))}
	var err error
	if m.adding {
		m.t0 = time.Now()
		m.id, err = r.eng.add(r.in.psq[m.square])
		m.t1 = time.Now()
	} else {
		m.id = uint32(r.live)
		m.t0 = time.Now()
		err = r.eng.remove(m.id)
		m.t1 = time.Now()
	}
	wt.publicMs = append(wt.publicMs, ms(m.t1.Sub(m.t0)))
	if err != nil {
		wt.fail("publish %d: %v", m.seq, err)
		return
	}
	if m.adding {
		if want := uint32(r.exp.nBase + r.adds); m.id != want {
			wt.fail("add: id %d, want %d", m.id, want)
		}
		r.adds++
		r.live = int64(m.id)
	} else {
		r.live = -1
	}
	// The publish must show at once: the square's center is covered by the
	// square after its Add and not after its Remove.
	v := r.eng.pin()
	wt.attempted++
	if in := slices.Contains(v.covers(r.in.centers[m.square]), m.id); in != m.adding {
		wt.fail("publish %d: square %d (id %d) covers its center: %v after adding=%v", m.seq, m.square, m.id, in, m.adding)
	}
	st := v.stats()
	wt.indexMB = append(wt.indexMB, st.sizeMB())
	if r.sh == nil {
		return
	}
	if tr == nil {
		r.pending = append(r.pending, m)
		return
	}
	r.replay(tr, m, &wt.mt, &wt.checker)
	wt.attempted++
	if err := r.sh.checkFidelity(st.cells); err != nil {
		wt.fail("publish %d: %v", m.seq, err)
	}
	wt.orphanSum += float64(st.orphanNodes) / float64(max(st.trieNodes+st.orphanNodes, 1))
	wt.orphanN++
}

// replay runs one mutation through the shadow under the public call's span.
func (r *runner) replay(tr *tracer, m mutation, mt *mutationTotals, c *checker) {
	if m.adding {
		pid := tr.add("actjoin.Add", -1, m.seq, m.t0, m.t1)
		if err := r.sh.replayAdd(tr, pid, m.seq, r.in.squares[m.square], m.id, mt); err != nil {
			c.fail("%v", err)
		}
		return
	}
	pid := tr.add("actjoin.Remove", -1, m.seq, m.t0, m.t1)
	r.sh.replayRemove(tr, pid, m.seq, m.id, mt)
}

// catchUp replays the queued mutations, untimed, and checks the shadow
// against the public index. It runs between phases, when no writer runs.
func (r *runner) catchUp(c *checker) {
	if r.sh == nil {
		return
	}
	tr := newTracer("untimed", r.origin)
	var mt mutationTotals
	for _, m := range r.pending {
		r.replay(tr, m, &mt, c)
	}
	r.pending = r.pending[:0]
	c.attempted++
	if err := r.sh.checkFidelity(r.eng.pin().stats().cells); err != nil {
		c.fail("%v", err)
	}
}

// liveHeapMB returns the live heap after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// runtimeSample is a reading of the runtime's cumulative counters.
type runtimeSample struct {
	allocBytes               uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocBytes: s[0].Value.Uint64(),
		gcCPU:      s[1].Value.Float64(),
		totalCPU:   s[2].Value.Float64(),
		idleCPU:    s[3].Value.Float64(),
	}
}

// runtimeDelta accumulates runtime counters over measurement windows.
type runtimeDelta struct {
	allocBytes     float64
	gcCPU, busyCPU float64 // busy is total minus idle CPU time
}

func (d *runtimeDelta) add(from, to runtimeSample) {
	d.allocBytes += float64(to.allocBytes - from.allocBytes)
	d.gcCPU += to.gcCPU - from.gcCPU
	d.busyCPU += (to.totalCPU - to.idleCPU) - (from.totalCPU - from.idleCPU)
}

// untraced holds the untraced parts of a traced run: a batch reader (alone),
// the writer, and for churn-mixed the reader that ran beside that writer,
// with the runtime counters of the reader-alone and writer windows.
type untraced struct {
	rd, mixed       readTotals
	wr              writeTotals
	readRT, writeRT runtimeDelta
}
