package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForCoversAll: every index runs exactly once, and no more
// than limit calls of fn are ever in flight — the calling goroutine is
// one of the limit workers, not an extra one. limit 0 is GOMAXPROCS, the
// bound every fleet evaluation runs at.
func TestParallelForCoversAll(t *testing.T) {
	for _, tc := range []struct{ n, limit int }{{0, 4}, {1, 4}, {3, 8}, {37, 1}, {37, 2}, {37, 4}, {37, 0}} {
		t.Run(fmt.Sprintf("n=%d,limit=%d", tc.n, tc.limit), func(t *testing.T) {
			limit := tc.limit
			if limit == 0 {
				limit = runtime.GOMAXPROCS(0)
			}
			hits := make([]atomic.Int64, tc.n)
			var inFlight, peak atomic.Int64
			ParallelFor(tc.n, tc.limit, func(i int) {
				now := inFlight.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				// Hold the slot long enough for the other workers to overlap.
				time.Sleep(100 * time.Microsecond)
				hits[i].Add(1)
				inFlight.Add(-1)
			})
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times", i, c)
				}
			}
			if p := peak.Load(); p > int64(limit) {
				t.Errorf("%d calls in flight at once, limit %d", p, limit)
			}
		})
	}
}

// TestParallelForChunksRunEachIndexOnce: with indices claimed in blocks
// of max(1, n/(64·limit)), every index still runs exactly once — below
// the block threshold, at it, past it with a ragged last block, and at
// vtime-fleet-eval's 12 500 devices — at limits 1 to 4.
func TestParallelForChunksRunEachIndexOnce(t *testing.T) {
	for limit := 1; limit <= 4; limit++ {
		for _, n := range []int{0, 1, limit, 127, 128*limit + 3, 12500} {
			hits := make([]atomic.Int32, n)
			ParallelFor(n, limit, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("limit %d, n %d: index %d ran %d times", limit, n, i, c)
				}
			}
		}
	}
}
