package main

import (
	"testing"
	"time"

	"fedprox/internal/obs"
)

// fakeClock is the sink's clock in these tests: it moves only when told.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

// script feeds a sink events, each after a pause in milliseconds, and
// returns the attribution of the run that ends tail milliseconds later.
type step struct {
	afterMs int
	ev      obs.Event
}

func attributeScript(steps []step, tailMs int) (phases, time.Duration) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	sink := newWallSink(clock.now)
	sink.begin()
	for _, s := range steps {
		clock.t = clock.t.Add(time.Duration(s.afterMs) * time.Millisecond)
		sink.Emit(s.ev)
	}
	clock.t = clock.t.Add(time.Duration(tailMs) * time.Millisecond)
	wall := sink.elapsed()
	return attribute(sink.evs, wall), wall
}

func kind(k obs.Kind) obs.Event { return obs.Event{Kind: k} }

func reply(disposition string) obs.Event {
	return obs.Event{Kind: obs.KindReply, Disposition: disposition}
}

func msec(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func (p phases) sum() time.Duration { return p.broadcast + p.device + p.fold + p.eval + p.other }

func TestAttributeSyncRound(t *testing.T) {
	p, wall := attributeScript([]step{
		{1, kind(obs.KindRunStart)},
		{30, kind(obs.KindEval)}, // the round-0 evaluation
		{2, kind(obs.KindRoundOpen)},
		{3, kind(obs.KindDispatch)},
		{4, kind(obs.KindDispatch)},
		{50, reply(folded)}, // first reply after a dispatch: the device phase
		{1, reply(folded)},  // the rest of the round's replies are bookkeeping
		{5, kind(obs.KindFold)},
		{1, kind(obs.KindRoundClose)},
		{20, kind(obs.KindEval)},
		{2, kind(obs.KindRunDone)},
	}, 7)
	want := phases{broadcast: msec(7), device: msec(50), fold: msec(5), eval: msec(50), other: msec(1 + 2 + 1 + 1 + 2 + 7)}
	if p.broadcast != want.broadcast || p.device != want.device || p.fold != want.fold || p.eval != want.eval || p.other != want.other {
		t.Errorf("phases %+v, want %+v", p, want)
	}
	if p.sum() != wall {
		t.Errorf("phases sum to %v, wall is %v", p.sum(), wall)
	}
	if len(p.rounds) != 1 || p.rounds[0] != msec(3+4+50+1+5+1) {
		t.Errorf("rounds %v, want one of 64ms from round-open to round-close", p.rounds)
	}
	if p.dispatches != 2 || p.folded != 2 || p.dropped != 0 || p.evals != 2 || p.nEvs != 11 {
		t.Errorf("counts %+v", p)
	}
}

func TestAttributeAsyncInterleaving(t *testing.T) {
	p, wall := attributeScript([]step{
		{1, kind(obs.KindRunStart)},
		{2, kind(obs.KindDispatch)},
		{2, kind(obs.KindDispatch)},
		{10, reply(folded)}, // device
		{1, kind(obs.KindFold)},
		{3, kind(obs.KindDispatch)}, // broadcast
		{8, reply("drop-deadline")}, // device: first reply after that dispatch
		{4, reply(folded)},          // no dispatch since the last reply: other
		{1, kind(obs.KindFold)},
		{1, kind(obs.KindRoundClose)},
		{40, obs.Event{Kind: obs.KindSpan, Label: "fednet-eval"}}, // no boundary: inside the eval interval
		{1, kind(obs.KindEval)},
		{6, kind(obs.KindRoundClose)},
	}, 0)
	want := phases{broadcast: msec(7), device: msec(18), fold: msec(2), eval: msec(41), other: msec(1 + 4 + 1 + 6)}
	if p.broadcast != want.broadcast || p.device != want.device || p.fold != want.fold || p.eval != want.eval || p.other != want.other {
		t.Errorf("phases %+v, want %+v", p, want)
	}
	if p.sum() != wall {
		t.Errorf("phases sum to %v, wall is %v", p.sum(), wall)
	}
	// With no round-open, a milestone runs from the last boundary: the
	// run's start, then the evaluation that followed the first close.
	if len(p.rounds) != 2 || p.rounds[0] != msec(32) || p.rounds[1] != msec(6) {
		t.Errorf("rounds %v, want [32ms 6ms]", p.rounds)
	}
	if p.folded != 2 || p.dropped != 1 || p.dispatches != 3 {
		t.Errorf("counts %+v", p)
	}
}

func TestAttributeRemainderIsOther(t *testing.T) {
	p, wall := attributeScript([]step{{5, kind(obs.KindRunStart)}, {1, kind(obs.KindRunDone)}}, 9)
	if p.other != msec(15) || p.sum() != wall {
		t.Errorf("other %v of wall %v, want all 15ms", p.other, wall)
	}
	if p, _ := attributeScript(nil, 4); p.other != msec(4) {
		t.Errorf("an eventless run attributes %v to other, want 4ms", p.other)
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(n - i) // descending: percentile must sort
		}
		return s
	}
	if got := percentile(samples(199), 95); got != 0 {
		t.Errorf("p95 of 199 samples = %v, want 0: fewer than ten samples beyond it", got)
	}
	if got := percentile(samples(200), 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(samples(5), 50); got != 3 {
		t.Errorf("median of 1..5 = %v, want 3", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}
