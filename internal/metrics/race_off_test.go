//go:build !race

package metrics

const raceEnabled = false
