package vtime

import (
	"math"
	"testing"
)

// TestEngineOrdersByTimeThenSeq: events fire in (time, schedule-order)
// order, simultaneous events included — the tiebreak the simulator's
// reproducibility rests on.
func TestEngineOrdersByTimeThenSeq(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(2.0, func() { got = append(got, 3) })
	e.Schedule(1.0, func() { got = append(got, 1) })
	e.Schedule(1.0, func() { got = append(got, 2) }) // same time, later seq
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fire order %v, want %v", got, want)
		}
	}
	if e.Now() != 2.0 {
		t.Fatalf("clock %g, want 2.0", e.Now())
	}
}

// TestEngineClockMonotone: past schedules clamp to the present, Advance
// never runs backwards, and Step never rewinds the clock to an event
// that Advance overtook.
func TestEngineClockMonotone(t *testing.T) {
	e := NewEngine()
	e.Advance(5)
	e.Advance(-3)
	if e.Now() != 5 {
		t.Fatalf("clock %g, want 5", e.Now())
	}
	fired := math.NaN()
	e.Schedule(1.0, func() { fired = e.Now() }) // in the past: clamps to now
	e.Run()
	if fired != 5 {
		t.Fatalf("past event fired at %g, want clamp to 5", fired)
	}
	// An event scheduled before a mid-run Advance must not rewind the
	// clock when it fires (the async path advances for eval broadcasts
	// while replies are still pending).
	e2 := NewEngine()
	e2.Schedule(2, func() {})
	e2.Advance(10)
	e2.Run()
	if e2.Now() != 10 {
		t.Fatalf("Step rewound the clock to %g, want 10", e2.Now())
	}
}

// TestEngineNestedSchedules: events scheduling further events interleave
// correctly with already-pending ones.
func TestEngineNestedSchedules(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(1, func() {
		got = append(got, "a")
		e.After(0.5, func() { got = append(got, "a+0.5") })
	})
	e.Schedule(2, func() { got = append(got, "b") })
	e.Run()
	want := []string{"a", "a+0.5", "b"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestModelDeterministic: two models built with identical arguments
// produce identical latency and loss streams.
func TestModelDeterministic(t *testing.T) {
	mk := func() *Model {
		return MustModel(
			UniformCompute{SecondsPerEpoch: 0.1, Speed: SlowTail(10, 0.2, 10)},
			Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.02, JitterStd: 0.3, DropProb: 0.1},
			42,
		)
	}
	a, b := mk(), mk()
	for seq := 0; seq < 50; seq++ {
		for dev := -1; dev < 10; dev++ {
			if x, y := a.UplinkSeconds(seq, dev, 8000), b.UplinkSeconds(seq, dev, 8000); x != y {
				t.Fatalf("uplink(%d,%d) %g != %g", seq, dev, x, y)
			}
			if x, y := a.DownlinkSeconds(seq, dev, 8000), b.DownlinkSeconds(seq, dev, 8000); x != y {
				t.Fatalf("downlink(%d,%d) %g != %g", seq, dev, x, y)
			}
			if x, y := a.Dropped(seq, dev), b.Dropped(seq, dev); x != y {
				t.Fatalf("dropped(%d,%d) %v != %v", seq, dev, x, y)
			}
			if x, y := a.ComputeSeconds(seq, dev, 3), b.ComputeSeconds(seq, dev, 3); x != y {
				t.Fatalf("compute(%d,%d) %g != %g", seq, dev, x, y)
			}
		}
	}
}

// TestSlowTail: the tail fraction runs factor times slower, everyone
// else (and the eval pseudo-device) at nominal speed.
func TestSlowTail(t *testing.T) {
	speed := SlowTail(10, 0.2, 10)
	for dev := 0; dev < 8; dev++ {
		if s := speed(dev); s != 1 {
			t.Fatalf("device %d speed %g, want 1", dev, s)
		}
	}
	for dev := 8; dev < 10; dev++ {
		if s := speed(dev); s != 0.1 {
			t.Fatalf("device %d speed %g, want 0.1", dev, s)
		}
	}
	if s := speed(EvalDevice); s != 1 {
		t.Fatalf("eval device speed %g, want 1", s)
	}
	// The tail actually slows transfers and compute.
	m := MustModel(UniformCompute{SecondsPerEpoch: 1, Speed: speed}, Net{UplinkBps: 1000, Speed: speed}, 1)
	if fast, slow := m.ComputeSeconds(0, 0, 2), m.ComputeSeconds(0, 9, 2); slow != 10*fast {
		t.Fatalf("compute slow/fast = %g/%g, want 10x", slow, fast)
	}
	if fast, slow := m.UplinkSeconds(0, 0, 1000), m.UplinkSeconds(0, 9, 1000); slow != 10*fast {
		t.Fatalf("uplink slow/fast = %g/%g, want 10x", slow, fast)
	}
}

// TestNetDefaultsAndValidation: zero bandwidth means latency-only legs;
// invalid knobs are rejected.
func TestNetDefaultsAndValidation(t *testing.T) {
	m := MustModel(nil, Net{Latency: 0.5}, 0)
	if d := m.DownlinkSeconds(0, 3, 1<<20); d != 0.5 {
		t.Fatalf("latency-only transfer %g, want 0.5", d)
	}
	if c := m.ComputeSeconds(0, 0, 5); c != 0 {
		t.Fatalf("nil compute model charged %g", c)
	}
	if m.Dropped(0, 0) {
		t.Fatal("DropProb 0 dropped a reply")
	}
	for _, bad := range []Net{{Latency: -1}, {JitterStd: -0.1}, {DropProb: 1}, {DropProb: -0.5}} {
		if _, err := newModel(nil, bad, 0); err == nil {
			t.Fatalf("invalid net %+v accepted", bad)
		}
	}
}

// TestJitterMeanOne: the log-normal jitter is mean-one, so expected
// transfer time equals the nominal time.
func TestJitterMeanOne(t *testing.T) {
	m := MustModel(nil, Net{UplinkBps: 1e6, JitterStd: 0.4}, 9)
	nominal := 8000.0 / 1e6
	sum := 0.0
	const trials = 20000
	for seq := 0; seq < trials; seq++ {
		sum += m.UplinkSeconds(seq, 0, 8000)
	}
	mean := sum / trials
	if math.Abs(mean-nominal)/nominal > 0.05 {
		t.Fatalf("jittered mean %g vs nominal %g (>5%% off)", mean, nominal)
	}
}
