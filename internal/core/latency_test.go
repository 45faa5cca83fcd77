package core

import (
	"math"
	"testing"
)

// TestReplyLatencyQuantilesEdgeCases covers the order-statistic
// boundaries: a single arrival (every quantile is that latency),
// all-equal latencies (interpolation between equal neighbors), and
// positions landing exactly on an index (no interpolation error, so
// equality is exact).
func TestReplyLatencyQuantilesEdgeCases(t *testing.T) {
	t.Run("zero-arrivals", func(t *testing.T) {
		h := &History{}
		for _, q := range h.ReplyLatencyQuantiles(0, 0.5, 1) {
			if !math.IsNaN(q) {
				t.Fatalf("no arrivals must yield NaN, got %v", q)
			}
		}
	})

	t.Run("single-arrival", func(t *testing.T) {
		h := &History{Arrivals: []Arrival{{Sent: 2, Arrived: 5.5}}}
		for _, q := range h.ReplyLatencyQuantiles(0, 0.25, 0.5, 1) {
			if q != 3.5 {
				t.Fatalf("single arrival: every quantile must be 3.5, got %v", q)
			}
		}
	})

	t.Run("all-equal", func(t *testing.T) {
		h := &History{}
		for range 7 {
			h.Arrivals = append(h.Arrivals, Arrival{Sent: 1, Arrived: 3})
		}
		for _, q := range h.ReplyLatencyQuantiles(0, 0.1, 0.5, 0.9, 1) {
			if q != 2 {
				t.Fatalf("all-equal latencies: every quantile must be 2, got %v", q)
			}
		}
	})

	t.Run("exact-index-boundaries", func(t *testing.T) {
		// Latencies 10,20,30,40,50: with len-1 = 4, quantiles 0, 0.25,
		// 0.5, 0.75, 1 land exactly on indices 0..4 — the results must
		// be the order statistics themselves, bit-exact.
		h := &History{}
		for _, lat := range []float64{30, 10, 50, 20, 40} {
			h.Arrivals = append(h.Arrivals, Arrival{Sent: 0, Arrived: lat})
		}
		got := h.ReplyLatencyQuantiles(0, 0.25, 0.5, 0.75, 1)
		want := []float64{10, 20, 30, 40, 50}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("quantile[%d] = %v, want exactly %v", i, got[i], want[i])
			}
		}
	})

	t.Run("interpolated", func(t *testing.T) {
		// Two arrivals, q=0.5: midpoint of the two order statistics.
		h := &History{Arrivals: []Arrival{{Sent: 0, Arrived: 1}, {Sent: 0, Arrived: 2}}}
		if q := h.ReplyLatencyQuantiles(0.5)[0]; math.Abs(q-1.5) > 1e-15 {
			t.Fatalf("median of {1,2} = %v, want 1.5", q)
		}
	})

	t.Run("invalid-q", func(t *testing.T) {
		h := &History{Arrivals: []Arrival{{Sent: 0, Arrived: 1}}}
		for _, q := range h.ReplyLatencyQuantiles(-0.1, 1.1, math.NaN()) {
			if !math.IsNaN(q) {
				t.Fatalf("out-of-range q must yield NaN, got %v", q)
			}
		}
	})
}
