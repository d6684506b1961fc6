package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the loop sleeps or an operation runs.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t
	}
}

// TestOpenLoopLateness checks that a stall is charged to every operation
// queued behind it: each is timed from its due time, not from when the
// generator got to it.
func TestOpenLoopLateness(t *testing.T) {
	const iv = 10 * time.Millisecond
	clk := &fakeClock{}
	cost := []time.Duration{2, 35, 2, 2, 2, 2} // ms; op 1 stalls 3.5 intervals
	samples, missed := openLoop(clk, 0, iv, 6*iv, func(i int) {
		clk.t += cost[i] * time.Millisecond
	})
	if missed != 0 || len(samples) != 6 {
		t.Fatalf("%d samples, %d missed; want 6, 0", len(samples), missed)
	}
	// Op 1 starts on time and ends 35 ms late; ops 2..4 queue behind it.
	want := []struct{ lag, latency time.Duration }{
		{0, 2}, {0, 35}, {25, 27}, {17, 19}, {9, 11}, {1, 3},
	}
	for i, w := range want {
		s := samples[i]
		if s.lag != w.lag*time.Millisecond || s.latency != w.latency*time.Millisecond {
			t.Errorf("op %d: lag %v latency %v, want %v %v", i, s.lag, s.latency, w.lag*time.Millisecond, w.latency*time.Millisecond)
		}
		if s.service != cost[i]*time.Millisecond {
			t.Errorf("op %d: service %v, want %v", i, s.service, cost[i]*time.Millisecond)
		}
	}
}

// TestOpenLoopMissed checks that operations still unissued when the backlog
// outlasts the grace period are counted, not silently dropped.
func TestOpenLoopMissed(t *testing.T) {
	const iv = time.Second
	clk := &fakeClock{}
	samples, missed := openLoop(clk, 0, iv, 10*iv, func(i int) {
		clk.t += 8 * time.Second
	})
	// The ops due at 0 s and 1 s run from 0 to 8 s and from 8 to 16 s;
	// by then stop+grace (15 s) has passed, so the ops due at 2..9 s are
	// missed.
	if len(samples) != 2 || missed != 8 {
		t.Fatalf("%d samples, %d missed; want 2, 8", len(samples), missed)
	}
}
