// Command perfbench is the repository's end-to-end benchmark: it drives the
// public actjoin engine through two named workloads, checks every answer,
// and prints each metric by name with its unit and sample count. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload join-fine --seed 1 --seconds 30 --trace 0
//
// Workloads (see workload.go): join-fine (fine-precision index on 2 shards,
// conversion/sort/split/probe bound) and churn-mixed (open-loop Add/Remove
// writer beside a reader).
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) replays every batch and mutation through a shadow index built
// from the layers' exported functions and reports per-layer metrics (see
// shadow.go), writing its spans to a JSON-lines file.
//
// All inputs are generated from two seeds: --seed (points, the order of the
// churn squares, the verification sample) and the dataset's geometry seed
// (the polygon tiling and the churn squares), which --poly-seed overrides so
// a claim can be checked on a geometry it was not tuned on. The command
// exits 1 when any check fails and 2 on bad arguments.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the arguments, runs one workload and prints the report.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: join-fine or churn-mixed")
	seed := fs.Int64("seed", 1, "seed of the points and of the churn order")
	polySeed := fs.Int64("poly-seed", 0, "seed of the tiling and churn squares (0: the dataset's own)")
	seconds := fs.Float64("seconds", 30, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	// Span files go where run.sh keeps its build output.
	dir := os.Getenv("PERFBENCH_OUT")
	if dir == "" {
		dir = filepath.Join(".bench_build", "perfbench")
	}
	cfg := config{w: w, seed: *seed, polySeed: *polySeed, seconds: *seconds, trace: *trace == 1, traceDir: dir}

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	prov := provenance(cfg)
	if err := json.NewEncoder(out).Encode(map[string]any{"provenance": prov}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, "#", n)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok || math.IsNaN(v.value) || math.IsInf(v.value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s missing or not a number\n", d.name)
			return 1
		}
		fmt.Fprintf(out, "metric %-36s %14.6g %-7s n=%d\n", d.name, v.value, d.unit, v.samples)
		metrics[d.name] = map[string]any{"value": v.value, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !res.correct {
		return 1
	}
	return 0
}

// provenance describes the host, the build and the invocation.
func provenance(cfg config) map[string]any {
	cmd := os.Getenv("PERFBENCH_COMMAND")
	if cmd == "" {
		cmd = strings.Join(os.Args, " ")
	}
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"workload":   cfg.w.name,
		"seed":       cfg.seed,
		"poly_seed":  cfg.polySeed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
		"command":    cmd,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
