// Package obs is the observability spine of the repo: one flat event
// vocabulary for every protocol decision the sans-I/O cores make, a
// Sink interface those cores emit into, and a small set of concrete
// sinks (a deterministic JSONL trace writer and a Prometheus-text
// counter/histogram registry).
//
// The package is deliberately dependency-free: it imports only the
// standard library and nothing from the rest of the module, so
// internal/core can emit events without an import cycle and CI can
// enforce the boundary with `go list -deps`.
//
// Emission contract:
//
//   - A nil Sink means "tracing off". Emitters guard with a nil check,
//     so the disabled path costs one predictable branch and no
//     allocation — nothing measurable on the hot path.
//   - Event.Time is seconds on the emitting run's clock: virtual
//     seconds in the simulator and vtime executors, NaN when the run
//     has no clock. Wall-clock runtimes (fednet) wrap their sinks in
//     WallClock, which stamps NaN times with wall seconds since the
//     wrapper was built. Virtual-time events are therefore
//     deterministic per seed; wall-time events are not and never feed
//     determinism-sensitive sinks.
//   - Sinks must tolerate concurrent Emit calls: the coordinator
//     serializes its own emissions, but device runtimes serve distinct
//     devices from concurrent goroutines.
package obs

import (
	"math"
	"time"
)

// Kind classifies an Event. The zero value is invalid so a forgotten
// Kind is visible in traces instead of masquerading as a real event.
type Kind uint8

const (
	// KindRunStart opens a run: Label names it, N is the device count.
	KindRunStart Kind = iota + 1
	// KindRoundOpen opens a synchronous round: Round, N selected devices.
	KindRoundOpen
	// KindDispatch records one training dispatch leaving the
	// coordinator: Round (sync round or async milestone), Seq, Device,
	// Version of the broadcast snapshot, Epochs target, Budget (0 =
	// unlimited), BytesDown on the wire.
	KindDispatch
	// KindReply records the coordinator's verdict on one device reply:
	// Seq, Device, Version, Staleness at fold time (-1 when not
	// folded), EpochsDone, BytesUp/BytesDown of the round trip, Seconds
	// the reply's own latency (NaN untimed), Disposition ("folded" or a
	// drop reason).
	KindReply
	// KindDrop records a device cut without ever being contacted (the
	// DropStragglers policy): Round, Device, Disposition.
	KindDrop
	// KindFold records a model advance: Round, new Version, N updates
	// folded.
	KindFold
	// KindRoundClose closes a round or async milestone: Round, N
	// participants, Seconds of critical path (NaN untimed).
	KindRoundClose
	// KindEval records an evaluated point: Round, Loss, Acc.
	KindEval
	// KindCheckpoint records a persisted checkpoint: Round is the next
	// round after the saved prefix.
	KindCheckpoint
	// KindWorkerJoin records a transport-level worker connection
	// admitted by a wire driver: N devices on the connection.
	KindWorkerJoin
	// KindWorkerLost records one device evicted with its dead worker.
	KindWorkerLost
	// KindWorkerReadmit records one evicted device re-admitted.
	KindWorkerReadmit
	// KindDeviceDispatch is the device runtime's view of one served
	// dispatch: Round, Seq, Device, EpochsDone, BytesUp/BytesDown.
	KindDeviceDispatch
	// KindDeviceEval is the device runtime's view of one eval
	// broadcast: Seq, N hosted devices.
	KindDeviceEval
	// KindSpan is a measured duration around a named section: Label,
	// Seconds, optionally Device.
	KindSpan
	// KindRunDone closes a run.
	KindRunDone
)

// String returns the stable wire name of the kind — the "kind" value in
// JSONL traces and the README's event-schema table.
func (k Kind) String() string {
	switch k {
	case KindRunStart:
		return "run-start"
	case KindRoundOpen:
		return "round-open"
	case KindDispatch:
		return "dispatch"
	case KindReply:
		return "reply"
	case KindDrop:
		return "drop"
	case KindFold:
		return "fold"
	case KindRoundClose:
		return "round-close"
	case KindEval:
		return "eval"
	case KindCheckpoint:
		return "checkpoint"
	case KindWorkerJoin:
		return "worker-join"
	case KindWorkerLost:
		return "worker-lost"
	case KindWorkerReadmit:
		return "worker-readmit"
	case KindDeviceDispatch:
		return "device-dispatch"
	case KindDeviceEval:
		return "device-eval"
	case KindSpan:
		return "span"
	case KindRunDone:
		return "run-done"
	default:
		return "unknown"
	}
}

// Event is one observation. It is a flat value struct — no maps, no
// pointers — so building one on the emit path allocates nothing. Which
// fields are meaningful depends on Kind (see the Kind constants); the
// JSONL encoder serializes exactly the meaningful set, in a fixed
// order, so traces are byte-stable.
type Event struct {
	Kind Kind
	// Time is seconds on the run's clock; NaN when the run has no
	// clock (see the package comment).
	Time float64
	// Label names a run (KindRunStart) or a span section (KindSpan).
	Label string

	Round     int
	Seq       int
	Device    int
	Version   int
	Staleness int

	// Tier is the emitting coordinator's depth in a hierarchical
	// topology: 0 for the root, 1 for its edge aggregators, and so on.
	// -1 (the wire-omitted sentinel) marks an untiered run, so flat
	// traces carry no tier field at all.
	Tier int

	// Epochs is the dispatched epoch target; Budget the device-side
	// compute budget riding the dispatch (0 = unlimited); EpochsDone
	// the epochs the device actually ran.
	Epochs     int
	Budget     int
	EpochsDone int

	BytesDown int64
	BytesUp   int64

	// Disposition is what the coordinator did with a reply: "folded"
	// or a core.DropReason string.
	Disposition string

	Loss float64
	Acc  float64

	// Seconds is a measured duration: a reply's own latency
	// (KindReply), a round's critical path (KindRoundClose), a span's
	// length (KindSpan). NaN when unmeasured.
	Seconds float64

	// N is the kind's contextual count: devices in a run, selected
	// devices in a round, updates in a fold, hosted devices in an eval.
	N int
}

// Sink consumes events. Implementations must be safe for concurrent
// Emit calls and must not retain the Event past the call (it is a
// value; retaining copies is fine).
type Sink interface {
	Emit(Event)
}

// Multi fans every event out to each non-nil sink, in order. Nil
// arguments are skipped; with zero live sinks it returns nil (tracing
// off), with one it returns that sink unwrapped.
func Multi(sinks ...Sink) Sink {
	live := make(multi, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Sink

// Tape is a Sink that keeps every event in memory, in emission order.
// It takes no lock: hand it to a run whose coordinator is its only
// emitter (a replay, a re-execution's recording, a test).
type Tape []Event

// Emit appends e to the tape.
func (t *Tape) Emit(e Event) { *t = append(*t, e) }

func (m multi) Emit(e Event) {
	for _, s := range m {
		s.Emit(e)
	}
}

// WallClock stamps events that carry no time (Time NaN) with wall
// seconds since the wrapper was built, leaving timed events untouched.
// Wire runtimes wrap their sinks in it; simulator runs never do, so
// their traces stay deterministic. A nil inner sink yields nil.
func WallClock(inner Sink) Sink {
	if inner == nil {
		return nil
	}
	return &wallClock{inner: inner, start: time.Now()}
}

type wallClock struct {
	inner Sink
	start time.Time
}

func (w *wallClock) Emit(e Event) {
	if math.IsNaN(e.Time) {
		e.Time = time.Since(w.start).Seconds()
	}
	w.inner.Emit(e)
}

// Span measures the wall duration of one section and emits it as a
// single event when ended. The zero Kind defaults to KindSpan; Time is
// marked NaN so a WallClock wrapper stamps the emission point.
//
//	sp := obs.StartSpan(sink, obs.Event{Label: "worker-solve", Device: id})
//	... work ...
//	sp.End()
//
// Fields set on sp.Event between start and End (a result count, byte
// totals) ride the emitted event. A nil sink returns a nil *Span whose
// End is a no-op, so call sites need no guards.
type Span struct {
	Event Event
	sink  Sink
	start time.Time
}

// StartSpan opens a span; see Span.
func StartSpan(sink Sink, e Event) *Span {
	if sink == nil {
		return nil
	}
	if e.Kind == 0 {
		e.Kind = KindSpan
	}
	e.Time = math.NaN()
	return &Span{Event: e, sink: sink, start: time.Now()}
}

// End emits the span's event with Seconds set to the measured wall
// duration. Safe on a nil Span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Event.Seconds = time.Since(s.start).Seconds()
	s.sink.Emit(s.Event)
}

// Quantiles returns the given quantiles (each in [0,1]) of an ascending
// sample, interpolating linearly between order statistics: q = 1 is the
// largest value. A quantile of an empty sample, or outside [0,1], is NaN.
func Quantiles(sorted []float64, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	for i, q := range qs {
		if len(sorted) == 0 || math.IsNaN(q) || q < 0 || q > 1 {
			out[i] = math.NaN()
			continue
		}
		pos := q * float64(len(sorted)-1)
		lo := int(pos)
		hi := min(lo+1, len(sorted)-1)
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}
