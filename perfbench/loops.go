package main

import (
	"runtime"
	"time"
)

// clock abstracts time for the open-loop generator so its lateness
// accounting can be tested without sleeping.
type clock interface {
	now() time.Duration // time since the clock's origin
	sleepUntil(t time.Duration)
}

// wallClock is the real clock, offset from an origin.
type wallClock struct{ origin time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.origin) }

// spinWindow is how long before a due time the generator stops sleeping and
// yields in a loop instead: a sleeping goroutine wakes up to a millisecond
// late on this kind of host, which would otherwise be charged to every
// publish as lag.
const spinWindow = 2 * time.Millisecond

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// opSample is the timing of one open-loop operation, all relative to the
// time it was due: lag is how late it started, latency how late it ended.
type opSample struct {
	lag, latency, service time.Duration
}

// backlogGrace bounds how long the generator keeps draining operations that
// fell due before stop; operations still unissued then count as missed.
const backlogGrace = 5 * time.Second

// openLoop issues op(0), op(1), ... at start, start+interval, ... for every
// due time before stop, regardless of how long earlier operations took:
// independent users do not wait for each other. Each operation is timed
// from its due time, so a stall charges its wait to every operation queued
// behind it. It returns the samples and the number of operations that fell
// due but were never issued because the backlog outlasted stop+backlogGrace.
func openLoop(clk clock, start, interval, stop time.Duration, op func(i int)) (samples []opSample, missed int) {
	for i := 0; ; i++ {
		due := start + time.Duration(i)*interval
		if due >= stop {
			return samples, 0
		}
		if clk.now() >= stop+backlogGrace {
			return samples, int((stop - due + interval - 1) / interval)
		}
		clk.sleepUntil(due)
		begin := clk.now()
		op(i)
		end := clk.now()
		samples = append(samples, opSample{lag: begin - due, latency: end - due, service: end - begin})
	}
}
