package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

func series(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

// TestPercentileTailRule checks the nearest-rank percentile and the rule
// that a reported percentile needs at least ten samples beyond it.
func TestPercentileTailRule(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true}, // 10 samples above 990
		{999, 0.99, 990, false}, // only 9 above
		{1100, 0.99, 1089, true},
		{200, 0.95, 190, true}, // 10 samples above 190
		{199, 0.95, 190, false},
		{20, 0.5, 10, true},
		{19, 0.5, 10, false},
		{1, 0.5, 1, false},
	}
	for _, c := range cases {
		got, ok := percentile(series(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(1..%d, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if v, ok := percentile(nil, 0.5); !math.IsNaN(v) || ok {
		t.Errorf("percentile(empty) = %v, %v; want NaN, false", v, ok)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPutTailWarnsOnShortTail(t *testing.T) {
	m := metricSet{}
	if w := m.putTail("a_p95", series(200)); w != "" {
		t.Errorf("200 samples: unexpected warning %q", w)
	}
	if w := m.putTail("a_p95", series(199)); w == "" {
		t.Error("199 samples: p95 reported without a warning")
	}
	if got := m["a_p95"]; got.samples != 199 || got.value != 190 {
		t.Errorf("p95 of 1..199 = %v over %d samples, want 190 over 199", got.value, got.samples)
	}
}

// TestMetricNameGrammar checks the declared metrics and rejects names and
// units outside the grammar.
func TestMetricNameGrammar(t *testing.T) {
	if err := checkDefs(append(append([]metricDef(nil), endToEnd...), perLayer...)); err != nil {
		t.Fatal(err)
	}
	bad := []metricDef{
		{"_lead", "ms", "lower"},
		{"has space", "ms", "lower"},
		{"a23456789012345678901234567890123456789012345678901234567890123x5", "ms", "lower"}, // 65 letters
		{"ok", "way_too_long_unit", "lower"},
		{"ok", "m s", "lower"},
		{"ok", "ms", "sideways"},
	}
	for _, d := range bad {
		if err := checkDefs([]metricDef{d}); err == nil {
			t.Errorf("checkDefs accepted %+v", d)
		}
	}
	if err := checkDefs([]metricDef{{"x", "ms", "lower"}, {"x", "ms", "lower"}}); err == nil {
		t.Error("checkDefs accepted a duplicate name")
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json lists exactly the
// workloads and metrics this command declares and reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	// The listed workloads are exactly the declared ones, with the same
	// reasons.
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, declared %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		d, err := findWorkload(w.Name)
		if err != nil || d.why != w.Why {
			t.Errorf("workload %q: BENCHMARK.json why %q, declared %q (%v)", w.Name, w.Why, d.why, err)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, declared %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, declared %+v", i, m, d)
		}
	}
	for i, m := range b.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, declared %+v", i, m, d)
		}
	}
}
