//go:build poolpoison

package synthetic

import (
	"math"
	"testing"

	"fedprox/internal/data"
)

// TestReleasePoisons keeps the poolpoison tag honest for the fleet: a
// shard handed to Release reads as NaN features and −1 labels
// afterwards, in both halves of its split.
func TestReleasePoisons(t *testing.T) {
	fl := NewFleet(fleetTestConfig())
	s := fl.Shard(3)
	train, test := s.Train, s.Test
	fl.Release(s)
	for _, part := range [][]data.Example{train, test} {
		for i, ex := range part {
			if ex.Y != -1 || !math.IsNaN(ex.X[0]) || !math.IsNaN(ex.X[len(ex.X)-1]) {
				t.Fatalf("example %d survived Release: label %d, features %v", i, ex.Y, ex.X)
			}
		}
	}
}
