//go:build poolpoison

package data

import (
	"math"
	"testing"
)

// TestReleasePoisons keeps the poolpoison tag honest for the generator
// fleets: a shard handed to Sizes.Release reads as NaN features and −1
// tokens and labels afterwards, in both halves of its split.
func TestReleasePoisons(t *testing.T) {
	s := &Shard{
		Train: []Example{{X: []float64{0.5, 1}, Y: 1}, {Seq: []int{3, 4}, Y: 0}},
		Test:  []Example{{X: []float64{2}, Seq: []int{5}, Y: 2}},
	}
	Sizes{}.Release(s)
	for _, ex := range append(s.Train, s.Test...) {
		for _, v := range ex.X {
			if !math.IsNaN(v) {
				t.Fatalf("feature %g survived Release", v)
			}
		}
		for _, v := range ex.Seq {
			if v != -1 {
				t.Fatalf("token %d survived Release", v)
			}
		}
		if ex.Y != -1 {
			t.Fatalf("label %d survived Release", ex.Y)
		}
	}
}
