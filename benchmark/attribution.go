package main

import (
	"sort"
	"sync"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/obs"
)

// stamped is one coordinator event and the wall time its sink saw it,
// measured from the start of the traced run.
type stamped struct {
	ev obs.Event
	at time.Duration
}

// wallSink is the Config.Trace sink of a traced run. It stamps every
// event with the wall clock and keeps it in memory; nothing is written
// or analysed until the run has ended.
type wallSink struct {
	now   func() time.Time
	start time.Time
	mu    sync.Mutex
	evs   []stamped
}

// newWallSink returns a sink reading the clock now; tests pass a fake.
func newWallSink(now func() time.Time) *wallSink {
	return &wallSink{now: now, evs: make([]stamped, 0, 1<<14)}
}

// begin starts the run's clock, and elapsed reads it.
func (s *wallSink) begin()                 { s.start = s.now() }
func (s *wallSink) elapsed() time.Duration { return s.now().Sub(s.start) }

func (s *wallSink) Emit(e obs.Event) {
	at := s.elapsed()
	s.mu.Lock()
	s.evs = append(s.evs, stamped{ev: e, at: at})
	s.mu.Unlock()
}

// phases is the event-interval attribution of one traced run. The wall
// interval between two consecutive events is charged to the phase named
// by the later event's kind, so the five durations add up to the run's
// wall time exactly.
type phases struct {
	broadcast time.Duration // ends at a dispatch: selection + downlink encode
	device    time.Duration // ends at the first reply after a dispatch: local solves (+ wire)
	fold      time.Duration // ends at a fold
	eval      time.Duration // ends at an eval
	other     time.Duration // every other interval, and the time before the first and after the last event

	rounds                                   []time.Duration // one per round-close
	dispatches, folded, dropped, evals, nEvs int
}

// folded is the disposition of a reply the coordinator aggregated.
var folded = core.ArrivalFolded.String()

// attribute charges the intervals of evs, which are in emission order,
// to phases; wall is the duration of the whole traced run.
func attribute(evs []stamped, wall time.Duration) phases {
	var p phases
	p.nEvs = len(evs)
	var prev, roundStart time.Duration
	afterDispatch := false
	for _, s := range evs {
		if s.ev.Kind == obs.KindSpan {
			// A span times its own section (fednet's eval exchange) and
			// ends inside the interval of the decision that follows it.
			continue
		}
		d := s.at - prev
		prev = s.at
		switch s.ev.Kind {
		case obs.KindDispatch:
			p.broadcast += d
			p.dispatches++
			afterDispatch = true
		case obs.KindReply:
			if afterDispatch {
				p.device += d
				afterDispatch = false
			} else {
				p.other += d
			}
			if s.ev.Disposition == folded {
				p.folded++
			} else {
				p.dropped++
			}
		case obs.KindFold:
			p.fold += d
		case obs.KindEval:
			p.eval += d
			p.evals++
			roundStart = s.at
		case obs.KindRoundClose:
			p.other += d
			p.rounds = append(p.rounds, s.at-roundStart)
			roundStart = s.at
		case obs.KindRunStart, obs.KindRoundOpen:
			p.other += d
			roundStart = s.at
		default:
			p.other += d
		}
	}
	p.other += wall - prev
	return p
}

// tailPercentile returns the highest of the 99th, 95th, 90th, 75th and
// 50th percentile that has at least ten of n samples beyond it, or 0
// when even the median has fewer.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

// percentile returns the nearest-rank p-th percentile of samples, which
// it sorts. The median is always reported; a higher percentile reads 0
// unless tailPercentile allows it for this many samples.
func percentile(samples []time.Duration, p float64) time.Duration {
	n := len(samples)
	if n == 0 || (p > 50 && p > tailPercentile(n)) {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	rank := int(float64(n)*p/100+0.5) - 1
	return samples[min(max(rank, 0), n-1)]
}
