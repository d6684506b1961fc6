package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run. Spans of one batch or one
// publish share seq; parent links a layer span to the span that caused it
// (-1 for a root). Times are offsets from the run's origin.
type span struct {
	name       string
	parent     int32
	seq        int32
	start, end time.Duration
}

// tracer keeps the spans of one goroutine in memory until the run ends. A
// tracer is not safe for concurrent use: the reader and the writer of a
// mixed workload each own one.
type tracer struct {
	role   string // "reader" or "writer", written with every span
	origin time.Time
	spans  []span
}

func newTracer(role string, origin time.Time) *tracer {
	return &tracer{role: role, origin: origin, spans: make([]span, 0, 1<<14)}
}

// add records a span timed by the caller, from start to end, and returns
// its id.
func (t *tracer) add(name string, parent, seq int32, start, end time.Time) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, seq: seq, start: start.Sub(t.origin), end: end.Sub(t.origin)})
	return int32(len(t.spans) - 1)
}

// spanTotals is the aggregate of every span of one name.
type spanTotals struct {
	count      int
	total, own time.Duration // summed durations, and summed self times
}

// summarize aggregates the spans by name. A span's self time is its
// duration minus the durations of its children. Replay spans that re-run
// work a public call or a layer call did internally are attributed as its
// children (see shadow.go), so self time is what remains unexplained.
func (t *tracer) summarize(into map[string]spanTotals) {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		a := into[s.name]
		a.count++
		a.total += s.end - s.start
		a.own += s.end - s.start - child[i]
		into[s.name] = a
	}
}

// spanRecord is the on-disk form of a span, one JSON object per line.
type spanRecord struct {
	Role    string `json:"role"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Seq     int32  `json:"seq"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes every tracer's spans to path as JSON lines.
func writeSpans(path string, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		for i, s := range t.spans {
			rec := spanRecord{Role: t.role, ID: int32(i), Parent: s.parent, Seq: s.seq, Name: s.name,
				StartNs: int64(s.start), EndNs: int64(s.end)}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return fmt.Errorf("trace output: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return nil
}
