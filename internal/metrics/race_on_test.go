//go:build race

package metrics

// raceEnabled reports a binary built with the race detector, under which
// sync.Pool discards a share of what it is handed and allocation
// assertions on pooled paths do not hold.
const raceEnabled = true
