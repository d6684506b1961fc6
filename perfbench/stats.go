package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a p95 needs at least 200 samples, a p99 at least 1000.
const minTail = 10

// tailQ is the tail percentile the end-to-end batch latency reports. On a
// shared 2-vCPU host the p99 of a batch or a publish is set by host
// preemption and spreads by up to 100% between runs; the batch p95 keeps
// dozens of samples beyond it and spreads by about 10%.
const tailQ = 0.95

// percentile returns the nearest-rank q-quantile (0 < q < 1) of xs and
// whether at least minTail samples lie strictly beyond it. xs is sorted in
// place. An empty series yields (NaN, false).
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(q*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	return xs[idx], len(xs)-1-idx >= minTail
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place; NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricDef declares one metric of BENCHMARK.json: its name, unit and the
// direction in which it improves.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics an untraced run reports, in print order. They
// are what a user of the engine sees: throughput and latency of joins,
// lookups and publishes, set-up time and memory.
var endToEnd = []metricDef{
	{"join_mpts", "Mpts/s", "higher"},
	{"join_batch_ms_p50", "ms", "lower"},
	{"join_batch_ms_p95", "ms", "lower"},
	{"lookup_mops", "Mops/s", "higher"},
	{"publish_ms_p50", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"index_mb", "MB", "lower"},
}

// perLayer lists the metrics a traced run reports, named by the module whose
// exported functions the benchmark times or counts.
var perLayer = []metricDef{
	{"cellid.convert_ns_per_pt", "ns", "lower"},
	{"join.split_ns_per_pt", "ns", "lower"},
	{"join.batch_ns_per_pt", "ns", "lower"},
	{"join.sort_self_ns_per_pt", "ns", "lower"},
	{"join.cache_hit_ratio", "ratio", "higher"},
	{"act.probe_ns_per_pt", "ns", "lower"},
	{"act.nodes_per_probe", "count", "lower"},
	{"refs.decode_ns_per_pt", "ns", "lower"},
	{"geom.pip_ns_per_test", "ns", "lower"},
	{"geom.pip_tests_per_pt", "count", "lower"},
	{"geom.pip_true_ratio", "ratio", "higher"},
	{"actjoin.join_other_ns_per_pt", "ns", "lower"},
	{"actjoin.duration_vs_wall", "ratio", "higher"},
	{"cover.covering_ms", "ms", "lower"},
	{"supercover.refine_ms", "ms", "lower"},
	{"supercover.remove_ms", "ms", "lower"},
	{"supercover.emit_ms", "ms", "lower"},
	{"supercover.dirty_cells_per_publish", "count", "lower"},
	{"cellindex.encode_ms", "ms", "lower"},
	{"act.patch_ms", "ms", "lower"},
	{"actjoin.publish_other_ms", "ms", "lower"},
	{"actjoin.patched_ratio", "ratio", "higher"},
	{"actjoin.compactions_landed_per_s", "1/s", "higher"},
	{"actjoin.compactions_abandoned", "count", "lower"},
	{"act.orphan_frac", "ratio", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.alloc_bytes_per_pt", "B", "lower"},
	{"runtime.alloc_bytes_per_publish", "B", "lower"},
	{"trace.join_overhead_frac", "ratio", "lower"},
	{"trace.publish_overhead_frac", "ratio", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs validates a metric list against the BENCHMARK.json grammar:
// names start with a letter or digit and hold at most 64 letters, digits,
// '_', '.' and '-', each used once; units hold 1 to 16 letters, digits,
// '_', '/', '%', '.' and '-'; better is "higher" or "lower".
func checkDefs(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) {
			return fmt.Errorf("metric name %q breaks the name grammar", d.name)
		}
		if seen[d.name] {
			return fmt.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
		if !unitRE.MatchString(d.unit) {
			return fmt.Errorf("metric %s: unit %q breaks the unit grammar", d.name, d.unit)
		}
		if d.better != "higher" && d.better != "lower" {
			return fmt.Errorf("metric %s: better must be higher or lower, got %q", d.name, d.better)
		}
	}
	return nil
}

// metric is one measured value with the number of samples behind it.
type metric struct {
	value   float64
	samples int
}

// metricSet collects the values of one run by name.
type metricSet map[string]metric

// put records a metric measured over n samples.
func (m metricSet) put(name string, value float64, n int) { m[name] = metric{value, n} }

// putTail records the tailQ percentile of a millisecond series, and returns
// a warning when fewer than minTail samples lie beyond it.
func (m metricSet) putTail(name string, xs []float64) string {
	v, ok := percentile(xs, tailQ)
	m.put(name, v, len(xs))
	if !ok {
		return fmt.Sprintf("%s: only %d samples, fewer than %d beyond the reported percentile", name, len(xs), minTail)
	}
	return ""
}
