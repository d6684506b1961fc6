package main

import (
	"fmt"
	"time"
)

// div returns a/b, or 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mpts returns a reader's batch throughput in million points per second
// of JoinCount wall time.
func (rt *readTotals) mpts() float64 { return div(float64(rt.points), rt.busy.Seconds()) / 1e6 }

// endToEnd fills the untraced run's metrics and returns warnings.
func (r *runner) endToEnd(m metricSet, rd *readTotals, wr *writeTotals, setupS []float64, heapMB float64) []string {
	var notes []string
	warn := func(s string) {
		if s != "" {
			notes = append(notes, "warning: "+s)
		}
	}
	// Throughputs are medians over stretches of the run (one-second
	// windows of batches, lookup chunks), so a burst of load from outside
	// the benchmark shifts them less than it would a grand total.
	var win []float64
	for _, w := range rd.windows {
		if w.busy >= time.Second/2 {
			win = append(win, float64(w.points)/w.busy.Seconds()/1e6)
		}
	}
	m.put("join_mpts", median(win), len(win))
	m.put("join_batch_ms_p50", median(rd.batchMs), len(rd.batchMs))
	warn(m.putTail("join_batch_ms_p95", rd.batchMs))
	m.put("lookup_mops", median(rd.chunkMops), len(rd.chunkMops))

	lat := make([]float64, len(wr.samples))
	lag := make([]float64, len(wr.samples))
	for i, s := range wr.samples {
		lat[i], lag[i] = ms(s.latency), ms(s.lag)
	}
	m.put("publish_ms_p50", median(lat), len(lat))
	// Publish tails and writer lag are printed, not gated: a writer-only
	// publish phase's p95 spreads by about 30% between runs on a shared
	// 2-vCPU host, and the generator yields until each due time, so while
	// the writer keeps up its lag is microseconds of clock reads.
	pct := func(xs []float64, q float64) float64 { v, _ := percentile(xs, q); return v }
	notes = append(notes,
		fmt.Sprintf("publish p90 %.4g ms, p95 %.4g ms, p99 %.4g ms; service p50 %.4g ms",
			pct(lat, 0.90), pct(lat, 0.95), pct(lat, 0.99), median(append([]float64(nil), wr.publicMs...))),
		fmt.Sprintf("writer lag p95 %.4g ms, p99 %.4g ms over %d publishes", pct(lag, 0.95), pct(lag, 0.99), len(lag)),
		fmt.Sprintf("join batch p99 %.4g ms", pct(rd.batchMs, 0.99)))
	m.put("setup_s", median(setupS), len(setupS))
	m.put("heap_mb", heapMB, 1)
	m.put("index_mb", median(wr.indexMB), len(wr.indexMB))
	return notes
}

// perLayer fills the traced run's metrics from the spans, the replay
// counters and the untraced windows, and returns notes.
func (r *runner) perLayer(m metricSet, rd *readTotals, wr *writeTotals, un *untraced, ps0, ps1 publishStats) []string {
	tot := map[string]spanTotals{}
	for _, t := range []*tracer{rd.tracer, wr.tracer} {
		if t != nil {
			t.summarize(tot)
		}
	}
	jt := rd.jt
	pts := float64(jt.points)
	nsPerPt := func(name, span string, own bool) {
		d := tot[span].total
		if own {
			d = tot[span].own
		}
		m.put(name, div(float64(d), pts), tot[span].count)
	}
	nsPerPt("cellid.convert_ns_per_pt", "cellid.FromPoint", false)
	nsPerPt("join.split_ns_per_pt", "join.PartitionByShard", false)
	nsPerPt("join.batch_ns_per_pt", "join.RunBatchCount", false)
	nsPerPt("join.sort_self_ns_per_pt", "join.RunBatchCount", true)
	nsPerPt("act.probe_ns_per_pt", "act.FindRange", false)
	nsPerPt("refs.decode_ns_per_pt", "refs.AppendRefs", false)
	nsPerPt("actjoin.join_other_ns_per_pt", "actjoin.JoinCount", true)
	m.put("join.cache_hit_ratio", div(float64(rd.cacheHits), float64(rd.points)), len(rd.batchMs))
	m.put("act.nodes_per_probe", div(jt.nodes, float64(jt.probes)), int(jt.probes))
	m.put("geom.pip_ns_per_test", div(float64(tot["geom.ContainsPoint"].total), float64(jt.pipTests)), int(jt.pipTests))
	m.put("geom.pip_tests_per_pt", div(float64(rd.pipTests), float64(rd.points)), len(rd.batchMs))
	m.put("geom.pip_true_ratio", div(float64(jt.trues), float64(jt.pipTests)), int(jt.pipTests))
	m.put("actjoin.duration_vs_wall", div(float64(rd.reported), float64(rd.busy)), len(rd.batchMs))

	mt := wr.mt
	msPer := func(name, span string, n int) {
		m.put(name, div(ms(tot[span].total), float64(n)), tot[span].count)
	}
	msPer("cover.covering_ms", "cover.Covering", mt.adds)
	msPer("supercover.refine_ms", "supercover.Refine", mt.adds)
	msPer("supercover.remove_ms", "supercover.RemovePolygon", mt.removes)
	msPer("supercover.emit_ms", "supercover.Emit", mt.publishes)
	msPer("cellindex.encode_ms", "cellindex.Encoder", mt.publishes)
	msPer("act.patch_ms", "act.Patch", mt.publishes)
	m.put("supercover.dirty_cells_per_publish", div(float64(mt.dirtyCells), float64(mt.publishes)), mt.publishes)
	other := tot["actjoin.Add"].own + tot["actjoin.Remove"].own
	m.put("actjoin.publish_other_ms", div(ms(other), float64(mt.publishes)), mt.publishes)

	patched, full := ps1.patched-ps0.patched, ps1.full-ps0.full
	m.put("actjoin.patched_ratio", div(float64(patched), float64(patched+full)), patched+full)
	window := (wr.window + un.wr.window).Seconds()
	landed := ps1.landed - ps0.landed
	m.put("actjoin.compactions_landed_per_s", div(float64(landed), window), landed)
	started := ps1.started - ps0.started
	m.put("actjoin.compactions_abandoned", float64(started-landed), started)
	m.put("act.orphan_frac", div(wr.orphanSum, float64(wr.orphanN)), wr.orphanN)

	// Runtime counters come from the untraced windows, which carry no
	// replay work. The reader ran alone in its window; in churn-mixed the
	// writer's window also had a reader, whose share is subtracted at the
	// reader-alone rate.
	perPt := div(un.readRT.allocBytes, float64(un.rd.points))
	m.put("runtime.alloc_bytes_per_pt", perPt, len(un.rd.batchMs))
	pubs := len(un.wr.publicMs)
	writerBytes := un.writeRT.allocBytes - perPt*float64(un.mixed.points)
	m.put("runtime.alloc_bytes_per_publish", div(writerBytes, float64(pubs)), pubs)
	m.put("runtime.gc_cpu_frac", div(un.readRT.gcCPU+un.writeRT.gcCPU, un.readRT.busyCPU+un.writeRT.busyCPU), 1)

	// Tracing overhead: traced against untraced throughput of the same
	// reader, and public publish time with and without inline replays, both
	// writers at the same publish rate. In churn-mixed the traced reader
	// spends most of its time on replays rather than batches, so the publish
	// figure also carries that change in contention.
	base := &un.rd
	if r.cfg.w.mixed {
		base = &un.mixed
	}
	m.put("trace.join_overhead_frac", 1-div(rd.mpts(), base.mpts()), len(rd.batchMs))
	tp, up := median(append([]float64(nil), wr.publicMs...)), median(append([]float64(nil), un.wr.publicMs...))
	m.put("trace.publish_overhead_frac", div(tp, up)-1, len(wr.publicMs))

	return []string{
		fmt.Sprintf("traced: %d batches (%.3f Mpts/s, untraced %.3f), %d publishes (public p50 %.3f ms, untraced %.3f ms), shadow rebuilds %d",
			len(rd.batchMs), rd.mpts(), base.mpts(), mt.publishes, tp, up, r.sh.rebuilds),
		fmt.Sprintf("span totals: %s", formatTotals(tot)),
	}
}

// formatTotals renders span totals compactly for the report.
func formatTotals(tot map[string]spanTotals) string {
	s := ""
	for _, name := range []string{"actjoin.JoinCount", "cellid.FromPoint", "join.PartitionByShard", "join.RunBatchCount",
		"act.FindRange", "refs.AppendRefs", "geom.ContainsPoint", "actjoin.Add", "actjoin.Remove", "cover.Covering",
		"supercover.Refine", "supercover.RemovePolygon", "supercover.Emit", "cellindex.Encoder", "act.Patch"} {
		t := tot[name]
		s += fmt.Sprintf(" %s=%d/%v/self %v", name, t.count, t.total.Round(time.Microsecond), t.own.Round(time.Microsecond))
	}
	return s
}
