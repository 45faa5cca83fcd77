package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelFor runs fn(i) for i in [0, n) on at most limit workers
// (GOMAXPROCS when limit <= 0), the calling goroutine among them. Each
// worker claims the next max(1, n/(64·limit)) indices from one shared
// counter and runs them in order: under 128 items per worker that is one
// at a time, and a 12 500-device evaluation on two workers steps the
// counter about 130 times. It lives here, the lowest package both core
// (a round's encodes and solves) and metrics (every fleet evaluation)
// import.
func ParallelFor(n, limit int, fn func(i int)) {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	step := max(1, n/(64*limit))
	var next atomic.Int64
	work := func() {
		for lo := int(next.Add(int64(step))) - step; lo < n; lo = int(next.Add(int64(step))) - step {
			for i := lo; i < min(lo+step, n); i++ {
				fn(i)
			}
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
