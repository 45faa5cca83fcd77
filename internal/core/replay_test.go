package core

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/obs/tracefile"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// panicSolver fails the test the moment any local solve runs — the
// what-if acceptance criterion is "zero solver invocations".
type panicSolver struct{}

// Name deliberately claims "sgd" so Label(cfg) — and with it the
// run-start trace event — is identical to a run with the default solver.
func (panicSolver) Name() string { return "sgd" }

func (panicSolver) Solve(model.Model, []data.Example, []float64, solver.Config, int, *frand.Source) []float64 {
	panic("core: replay invoked a local solver")
}

// replaySyncConfig is a synchronous virtual-time run with a deadline
// tight enough to cut the 10x tail but loose enough to keep the cohort.
func replaySyncConfig(n int) Config {
	cfg := vtimeAsyncConfig(SyncRounds, n)
	cfg.Async = AsyncConfig{}
	cfg.VTime.DeadlineSeconds = 2
	return cfg
}

// recordTraced runs cfg over the tiny workload with a JSONL trace
// attached and returns the history plus the decoded event stream — the
// decode side of the round trip is exercised on every recording.
func recordTraced(t *testing.T, cfg Config) (*History, []obs.Event, []byte) {
	t.Helper()
	mdl, fed := tinyWorkload()
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	cfg.Trace = j
	h, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	raw := append([]byte(nil), buf.Bytes()...)
	evs, err := tracefile.ReadAll(&buf)
	if err != nil {
		t.Fatalf("decoding own trace: %v", err)
	}
	return h, evs, raw
}

// replayTraced replays recorded under cfg with its own trace attached.
func replayTraced(t *testing.T, cfg Config, recorded []obs.Event) (*History, []byte) {
	t.Helper()
	mdl, fed := tinyWorkload()
	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	cfg.Trace = j
	h, err := Replay(mdl, fed.Fleet(), cfg, recorded)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	return h, buf.Bytes()
}

// assertArrivalEquivalence is the replay-equivalence contract on the
// History: the fold schedule and every arrival-derived column re-derive
// exactly; only the loss/accuracy metrics (which replay cannot know)
// may differ.
func assertArrivalEquivalence(t *testing.T, rec, rep *History) {
	t.Helper()
	if rec.Label != rep.Label {
		t.Fatalf("label %q replayed as %q", rec.Label, rep.Label)
	}
	if len(rec.Arrivals) != len(rep.Arrivals) {
		t.Fatalf("arrivals: %d recorded, %d replayed", len(rec.Arrivals), len(rep.Arrivals))
	}
	for i := range rec.Arrivals {
		if rec.Arrivals[i] != rep.Arrivals[i] {
			t.Fatalf("arrival %d: recorded %+v, replayed %+v", i, rec.Arrivals[i], rep.Arrivals[i])
		}
	}
	if len(rec.Points) != len(rep.Points) {
		t.Fatalf("points: %d recorded, %d replayed", len(rec.Points), len(rep.Points))
	}
	bits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range rec.Points {
		p, q := rec.Points[i], rep.Points[i]
		if p.Round != q.Round || p.Participants != q.Participants || p.Cost != q.Cost {
			t.Fatalf("point %d: recorded %+v, replayed %+v", i, p, q)
		}
		for _, f := range [][2]float64{
			{p.VirtualSeconds, q.VirtualSeconds},
			{p.MeanStaleness, q.MeanStaleness}, {p.MaxStaleness, q.MaxStaleness},
			{p.MeanEpochsDone, q.MeanEpochsDone}, {p.PartialFraction, q.PartialFraction},
			{p.Mu, q.Mu},
		} {
			if !bits(f[0], f[1]) {
				t.Fatalf("point %d arrival-derived fields diverge: recorded %+v, replayed %+v", i, p, q)
			}
		}
		if !math.IsNaN(q.TrainLoss) || !math.IsNaN(q.TestAcc) {
			t.Fatalf("point %d: replay fabricated metrics %g/%g", i, q.TrainLoss, q.TestAcc)
		}
	}
}

// assertTraceEquivalence compares two trace streams event-by-event over
// the shared schema: every field of every event must match (NaN-equal
// floats), except an eval event's loss/acc — the metrics replay does
// not recompute.
func assertTraceEquivalence(t *testing.T, recRaw, repRaw []byte) {
	t.Helper()
	rec, err := tracefile.ReadAll(bytes.NewReader(recRaw))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tracefile.ReadAll(bytes.NewReader(repRaw))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(rep) {
		t.Fatalf("trace length: %d recorded, %d replayed", len(rec), len(rep))
	}
	if i, key := tracefile.FirstDifference(rec, rep, true); key != "" {
		t.Fatalf("event %d (%v): field %q diverges\nrecorded %s\nreplayed %s",
			i, rec[i].Kind, key, obs.AppendEvent(nil, rec[i]), obs.AppendEvent(nil, rep[i]))
	}
}

// TestReplayEquivalence is the tentpole's replay criterion: feeding a
// recorded trace back through a fresh coordinator under the recorded
// policy reproduces the original fold schedule, every arrival-derived
// History column, and the full event stream — with zero local solves.
func TestReplayEquivalence(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	// A per-round wire budget worth ~3 of the 5 cohort replies.
	roundBytes := 3 * 2 * rawBytes(mdl.NumParams(), tensor.F64)
	cases := []struct {
		name     string
		cfg      Config
		wantDrop DropReason // a drop the policy must actually produce
	}{
		{"sync-deadline", replaySyncConfig(n), DropDeadline},
		{"sync-round-bytes", func() Config {
			cfg := vtimeAsyncConfig(SyncRounds, n)
			cfg.Async = AsyncConfig{}
			cfg.VTime.RoundBytes = roundBytes // cuts the arrival-order tail
			return cfg
		}(), DropBudget},
		{"async-total", vtimeAsyncConfig(AsyncTotal, n), ArrivalFolded},
		{"async-buffered", func() Config {
			cfg := vtimeAsyncConfig(Buffered, n)
			cfg.Async.BufferK = 3
			return cfg
		}(), ArrivalFolded},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, evs, recRaw := recordTraced(t, tc.cfg)
			if tc.wantDrop != ArrivalFolded {
				hit := false
				for _, a := range rec.Arrivals {
					if a.Drop == tc.wantDrop {
						hit = true
						break
					}
				}
				if !hit {
					t.Fatalf("recording produced no %v drops — the policy never bit", tc.wantDrop)
				}
			}
			cfg := tc.cfg
			cfg.Solver = panicSolver{} // replay must never solve
			rep, repRaw := replayTraced(t, cfg, evs)
			assertArrivalEquivalence(t, rec, rep)
			assertTraceEquivalence(t, recRaw, repRaw)
		})
	}
}

// TestReplayWhatIf sweeps alternative policies over one recording: the
// replays complete without a single solver call and actually change the
// schedule — the point of a what-if.
func TestReplayWhatIf(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	roundBytes := 3 * 2 * rawBytes(mdl.NumParams(), tensor.F64)
	rec, evs, _ := recordTraced(t, replaySyncConfig(n))

	alternatives := []struct {
		name   string
		mutate func(*Config)
	}{
		{"tighter-deadline", func(c *Config) { c.VTime.DeadlineSeconds = 0.9 }},
		{"round-bytes", func(c *Config) {
			c.VTime.DeadlineSeconds = 0
			c.VTime.RoundBytes = roundBytes
		}},
		{"async-alpha", func(c *Config) {
			c.VTime.DeadlineSeconds = 0
			c.Async = AsyncConfig{Mode: AsyncTotal, Alpha: 0.5, StalenessExponent: 1}
		}},
		{"buffered-k", func(c *Config) {
			c.VTime.DeadlineSeconds = 0
			c.Async = AsyncConfig{Mode: Buffered, BufferK: 3}
		}},
	}
	for _, alt := range alternatives {
		t.Run(alt.name, func(t *testing.T) {
			cfg := replaySyncConfig(n)
			alt.mutate(&cfg)
			cfg.Solver = panicSolver{}
			rep, _ := replayTraced(t, cfg, evs)
			if len(rep.Arrivals) == 0 {
				t.Fatal("what-if replay recorded no arrivals")
			}
			if rep.Final().VirtualSeconds <= 0 {
				t.Fatalf("what-if replay has no virtual duration: %+v", rep.Final())
			}
			same := len(rep.Arrivals) == len(rec.Arrivals)
			if same {
				for i := range rep.Arrivals {
					if rep.Arrivals[i] != rec.Arrivals[i] {
						same = false
						break
					}
				}
			}
			if same {
				t.Fatal("alternative policy reproduced the recorded schedule exactly — what-if had no effect")
			}
		})
	}
}

// TestReplayRejections: configurations whose behavior replay cannot
// re-derive are refused up front with a pointed error.
func TestReplayRejections(t *testing.T) {
	_, fed := tinyWorkload()
	n := fed.NumDevices()
	_, evs, _ := recordTraced(t, replaySyncConfig(n))

	reject := func(name, wantSub string, mutate func(*Config)) {
		t.Run(name, func(t *testing.T) {
			mdl, fed := tinyWorkload()
			cfg := replaySyncConfig(n)
			mutate(&cfg)
			_, err := Replay(mdl, fed.Fleet(), cfg, evs)
			if err == nil {
				t.Fatal("replay accepted a config it cannot re-derive")
			}
			if !strings.Contains(err.Error(), wantSub) {
				t.Fatalf("rejection %q does not mention %q", err, wantSub)
			}
		})
	}
	reject("no-vtime", "VTime.Model", func(c *Config) { c.VTime = VTimeConfig{} })
	reject("adaptive-mu", "AdaptiveMu", func(c *Config) { c.AdaptiveMu = true })
	reject("track-gamma", "TrackGamma", func(c *Config) { c.TrackGamma = true })

	t.Run("fleet-size-mismatch", func(t *testing.T) {
		mdl, fed := tinyWorkload()
		cfg := replaySyncConfig(n)
		small := fed.Fleet()
		// Replay against a fleet with one device fewer than recorded.
		_, err := Replay(mdl, truncatedFleet{small, small.NumDevices() - 1}, cfg, evs)
		if err == nil || !strings.Contains(err.Error(), "devices") {
			t.Fatalf("fleet mismatch not rejected: %v", err)
		}
	})

	t.Run("untimed-trace", func(t *testing.T) {
		mdl, fed := tinyWorkload()
		clockless := FedProx(3, 5, 3, 0.01, 1)
		var buf bytes.Buffer
		clockless.Trace = obs.NewJSONL(&buf)
		if _, err := Run(mdl, fed, clockless); err != nil {
			t.Fatal(err)
		}
		untimed, err := tracefile.ReadAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Replay(mdl, fed.Fleet(), replaySyncConfig(n), untimed); err == nil {
			t.Fatal("replay accepted an untimed trace")
		}
	})

	t.Run("sync-with-worker-loss", func(t *testing.T) {
		mdl, fed := tinyWorkload()
		withLoss := append(append([]obs.Event(nil), evs...), obs.Event{
			Kind: obs.KindWorkerLost, Time: 1, Device: 0,
		})
		if _, err := Replay(mdl, fed.Fleet(), replaySyncConfig(n), withLoss); err == nil {
			t.Fatal("sync replay accepted worker-lost events")
		}
	})
}

// truncatedFleet narrows a fleet to its first n devices.
type truncatedFleet struct {
	Fleet
	n int
}

func (f truncatedFleet) NumDevices() int { return f.n }

// tapeConfigs are the two recorded policies FuzzTape reads its tapes
// under, a synchronous and an asynchronous virtual-time run, and the
// asynchronous one as the fednet coordinator runs it (no clock), which
// Reexecute re-executes.
func tapeConfigs(n int) (sync, async, wire Config) {
	sync, async = replaySyncConfig(n), vtimeAsyncConfig(AsyncTotal, n)
	sync.Rounds, async.Rounds = 2, 2
	wire = async
	wire.VTime = VTimeConfig{}
	return sync, async, wire
}

// withEvent returns tape with e inserted after its first reply.
func withEvent(tape []obs.Event, e obs.Event) []obs.Event {
	i := slices.IndexFunc(tape, func(e obs.Event) bool { return e.Kind == obs.KindReply }) + 1
	return slices.Insert(slices.Clone(tape), i, e)
}

// TestTapeRefusesReadmitOutsideFleet: a worker-readmit event of a device
// outside the fleet is an error for both readers of a tape, never an
// index out of range. The asynchronous recording re-executes cleanly
// without it, so the error is the event's.
func TestTapeRefusesReadmitOutsideFleet(t *testing.T) {
	mdl, fed := tinyWorkload()
	n := fed.NumDevices()
	_, async, wire := tapeConfigs(n)
	_, tape, _ := recordTraced(t, async)
	if _, err := Reexecute(mdl, fed.Fleet(), wire, tape); err != nil {
		t.Fatalf("re-executing the recorded tape: %v", err)
	}
	for _, device := range []int{n + 5, -1} {
		bad := withEvent(tape, obs.Event{Kind: obs.KindWorkerReadmit, Device: device})
		if _, err := Replay(mdl, fed.Fleet(), async, bad); err == nil || !strings.Contains(err.Error(), "worker-readmit") {
			t.Errorf("device %d: Replay: %v, want a refusal of worker-readmit events", device, err)
		}
		if _, err := Reexecute(mdl, fed.Fleet(), wire, bad); err == nil || !strings.Contains(err.Error(), "unknown device") {
			t.Errorf("device %d: Reexecute: %v, want a re-admission of an unknown device", device, err)
		}
	}
}

// FuzzTape: a trace is untrusted input (a file fedtrace is handed). For
// any tape, both readers — Replay under a synchronous and an asynchronous
// policy, Reexecute under the asynchronous one as fednet runs it — return
// an error or a History: never a panic, never a block. The seeds
// (testdata/fuzz/FuzzTape) are the two recordings of tapeConfigs and the
// asynchronous one with a worker lost and re-admitted after its first
// reply.
func FuzzTape(f *testing.F) {
	mdl, fed := tinyWorkload()
	sync, async, wire := tapeConfigs(fed.NumDevices())
	f.Fuzz(func(t *testing.T, raw []byte) {
		tape, err := tracefile.ReadAll(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for i, read := range []func() (*History, error){
			func() (*History, error) { return Replay(mdl, fed.Fleet(), sync, tape) },
			func() (*History, error) { return Replay(mdl, fed.Fleet(), async, tape) },
			func() (*History, error) { return Reexecute(mdl, fed.Fleet(), wire, tape) },
		} {
			if h, err := read(); err == nil && h == nil {
				t.Fatalf("reader %d returned neither a History nor an error", i)
			}
		}
	})
}
