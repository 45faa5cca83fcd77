package main

import (
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/solver"
)

// callTimer collects the durations of concurrent calls.
type callTimer struct {
	mu   sync.Mutex
	durs []time.Duration
}

func (c *callTimer) add(d time.Duration) {
	c.mu.Lock()
	c.durs = append(c.durs, d)
	c.mu.Unlock()
}

// busy is the time spent in the calls, summed over goroutines: CPU-side
// busy time, not wall. It is read after the run.
func (c *callTimer) busy() time.Duration {
	var sum time.Duration
	for _, d := range c.durs {
		sum += d
	}
	return sum
}

// timedSolver is mini-batch SGD with every Solve call timed. It keeps
// the name "sgd", so the run's label and History are those of the
// undecorated run.
type timedSolver struct {
	callTimer
	epochs atomic.Int64
}

func (t *timedSolver) Name() string { return solver.SGDSolver{}.Name() }

func (t *timedSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg solver.Config, epochs int, rng *frand.Source) []float64 {
	start := time.Now()
	w := solver.SGDSolver{}.Solve(m, train, w0, cfg, epochs, rng)
	t.add(time.Since(start))
	t.epochs.Add(int64(epochs))
	return w
}

// timedFleet times every shard materialisation of the fleet it wraps,
// those of dispatches and those of evaluations alike.
type timedFleet struct {
	data.Fleet
	callTimer
}

func (t *timedFleet) Shard(device int) *data.Shard {
	start := time.Now()
	s := t.Fleet.Shard(device)
	t.add(time.Since(start))
	return s
}
