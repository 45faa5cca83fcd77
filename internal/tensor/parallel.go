package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for i in [0, n) on at most limit workers
// (GOMAXPROCS when limit <= 0), the calling goroutine among them: every
// worker takes the next index from one shared counter until none is left.
// It lives here, the lowest package both core (a round's encodes and
// solves) and metrics (every fleet evaluation) import.
func ParallelFor(n, limit int, fn func(i int)) {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(limit, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
