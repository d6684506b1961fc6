package actjoin

import "errors"

// Index lifecycle and health reporting.
//
// Every shard owns at most one background goroutine — its compactor — and
// Close gives them a real shutdown: refuse further mutations, cancel the
// in-flight builds, and wait for the goroutines to drain. Health exposes the
// degradation ladder the failure containment in compaction.go steps down:
// Healthy (everything on), Degraded (a shard's compactor quarantined itself
// after repeated failures; its publishes continue inline), Closed.

// ErrClosed is returned by mutations (Add, Remove, Apply) on an Index that
// has been Close()d.
var ErrClosed = errors.New("actjoin: index closed")

// HealthState classifies an Index's degradation level; see Health.
type HealthState uint8

const (
	// Healthy: every subsystem is operating, including background
	// compaction.
	Healthy HealthState = iota
	// Degraded: a background compactor quarantined itself after repeated
	// failures. The index stays fully functional — mutations, queries and
	// publishes all work — but threshold crossings on the affected shard now
	// compact inline on the writer, so write tail latency grows with the
	// covering.
	Degraded
	// Closed: Close was called. Queries on previously obtained snapshots
	// (and Current) keep working; mutations fail with ErrClosed.
	Closed
)

// String returns the state name.
func (s HealthState) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Closed:
		return "closed"
	}
	return "unknown"
}

// Health reports an Index's degradation state. Shards are independent
// failure domains — one shard's quarantined compactor degrades that shard
// alone (its publishes compact inline; every other shard keeps its
// background compactor) — so the index is Degraded when any shard is.
type Health struct {
	// State is Closed after Close, else Degraded when any shard is
	// degraded, else Healthy.
	State HealthState
	// Cause is nil when Healthy, the first degraded shard's cause when
	// Degraded, and ErrClosed when Closed.
	Cause error
	// Shards holds each shard's own health, indexed as ShardOf numbers the
	// shards; the entries' own Shards are nil.
	Shards []Health
}

// Health reports whether the index is operating at full capability. A
// Degraded index has lost background compaction on some shard (the cause
// says why) but remains correct and usable; operators alert on it the way
// they would on a stuck LSM compactor.
func (ix *Index) Health() Health {
	h := Health{Shards: make([]Health, len(ix.shards))}
	for i, sh := range ix.shards {
		h.Shards[i] = sh.health()
		if h.Shards[i].State == Degraded && h.Cause == nil {
			h.Cause = h.Shards[i].Cause
		}
	}
	switch {
	case ix.isClosed():
		h.State, h.Cause = Closed, ErrClosed
	case h.Cause != nil:
		h.State = Degraded
	default:
		h.State = Healthy
	}
	return h
}

// Close shuts the index down: further mutations fail with ErrClosed, every
// shard's in-flight compaction is cancelled, and Close waits for the
// compactor goroutines to drain. Every shard is marked closed before any
// goroutine is waited on, so one shard's slow drain never extends another
// shard's write window. Close is idempotent and safe to call concurrently
// with everything else; queries against Current() and previously obtained
// snapshots remain valid after it (snapshots are immutable and own every
// structure they reach). It implements io.Closer; the error is always nil.
func (ix *Index) Close() error {
	ix.regMu.Lock()
	ix.closed = true
	ix.regMu.Unlock()
	ix.wmu.Lock()
	for _, sh := range ix.shards {
		sh.beginClose()
	}
	ix.wmu.Unlock()
	// Wait outside every lock: a compactor's landing phase takes its shard's
	// mutex to deregister itself.
	for _, sh := range ix.shards {
		sh.compactorWG.Wait()
	}
	return nil
}
