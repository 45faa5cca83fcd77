// Package vtime is a seeded discrete-event simulation engine for
// federated deployments: a virtual clock plus an event queue ordered by
// (time, tiebreak sequence), with pluggable per-device latency models.
//
// The paper's subject — device heterogeneity, stragglers, partial work —
// is fundamentally about time, yet a simulator has no wall clock. vtime
// supplies one that is deterministic: every latency draw derives from a
// seed via internal/frand, and simultaneous events fire in schedule
// order, so a simulated asynchronous run is exactly reproducible where a
// real deployment's arrival order is not. internal/core drives its
// asynchronous aggregation modes (and the virtual duration accounting of
// its synchronous rounds) against this engine.
//
// The latency of one device round-trip decomposes the way MLSYSIM-style
// infrastructure models do:
//
//	downlink(encoded broadcast bytes) + compute(epochs over the local
//	shard) + uplink(encoded reply bytes)
//
// with per-transfer jitter and loss. Compute models are pluggable
// (internal/syshet's Fleet satisfies ComputeModel), and transfer times
// are functions of the *encoded* wire sizes from internal/comm, so codec
// choices change virtual time, not just byte counters.
package vtime

import "container/heap"

// Event is one scheduled callback.
type event struct {
	at  float64
	seq int
	fn  func()
}

// eventHeap orders events by (time, sequence): earlier time first, and
// among simultaneous events the one scheduled first. The tiebreak is what
// makes runs reproducible — no map iteration or goroutine scheduling ever
// decides an ordering.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is a virtual clock plus its pending events. The zero value is
// ready to use at time 0.
type Engine struct {
	now float64
	seq int
	pq  eventHeap
}

// NewEngine returns an engine at virtual time 0 with no pending events.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule registers fn to fire at absolute virtual time at. Times in the
// past clamp to Now: an event can never fire before the present, so the
// clock is monotone.
func (e *Engine) Schedule(at float64, fn func()) {
	if at < e.now {
		at = e.now
	}
	heap.Push(&e.pq, event{at: at, seq: e.seq, fn: fn})
	e.seq++
}

// After registers fn to fire d seconds from now (negative d clamps to 0).
func (e *Engine) After(d float64, fn func()) {
	e.Schedule(e.now+d, fn)
}

// Advance moves the clock forward by d seconds without firing anything —
// the hook for charging analytically-computed durations (a synchronous
// round, an evaluation broadcast) to the clock. Negative d is ignored.
func (e *Engine) Advance(d float64) {
	if d > 0 {
		e.now += d
	}
}

// Step fires the earliest pending event, advancing the clock to its time.
// The clock never moves backwards: an event overtaken by Advance (e.g. an
// evaluation charge while replies are pending) fires at the present.
// It returns false when no events are pending.
func (e *Engine) Step() bool {
	if len(e.pq) == 0 {
		return false
	}
	ev := heap.Pop(&e.pq).(event)
	if ev.at > e.now {
		e.now = ev.at
	}
	ev.fn()
	return true
}

// Run fires events until the queue is empty. Events may schedule further
// events; Run returns only when nothing is pending.
func (e *Engine) Run() {
	for e.Step() {
	}
}
