//go:build !race

package actjoin

// raceEnabled reports a -race build, where sync.Pool drops a share of its
// items on purpose and allocation counts stop being deterministic.
const raceEnabled = false
