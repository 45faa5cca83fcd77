package solver

import (
	"sync"

	"fedprox/internal/data"
)

// slicePool recycles per-solve scratch slices (epoch permutations, batch
// gather buffers) the same way tensor's vector pool does: slice values
// shuttle inside reused pointer boxes so a Get/Put pair costs zero
// steady-state allocations. Within a run every solve draws same-sized
// scratch, so the pools converge on a handful of buffers and the
// BenchmarkDeviceDispatch allocs/op floor holds.
type slicePool[T any] struct {
	vals, boxes sync.Pool
}

// get returns a length-n slice with unspecified contents.
func (sp *slicePool[T]) get(n int) []T {
	if p, ok := sp.vals.Get().(*[]T); ok {
		v := *p
		*p = nil
		sp.boxes.Put(p)
		if cap(v) >= n {
			return v[:n]
		}
	}
	return make([]T, n)
}

// put returns a slice to the pool; the caller must not touch it after.
func (sp *slicePool[T]) put(v []T) {
	if cap(v) == 0 {
		return
	}
	v = v[:cap(v)]
	p, ok := sp.boxes.Get().(*[]T)
	if !ok {
		p = new([]T)
	}
	*p = v
	sp.vals.Put(p)
}

var (
	permPool  slicePool[int]
	batchPool slicePool[data.Example]
	rowPool   slicePool[[]float32] // a float32 solve's rows (narrowed)
)
