package fednet

import (
	"math"
	"testing"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/solver"
	"fedprox/internal/vtime"
)

func asyncBase(mode core.AggregationMode) core.Config {
	cfg := core.FedProx(8, 5, 3, 0.01, 1)
	cfg.StragglerFraction = 0.5
	cfg.EvalEvery = 2
	cfg.Async = core.AsyncConfig{Mode: mode}
	return cfg
}

// TestAsyncConverges: the pure async mode completes its schedule, its
// history carries staleness columns, its evaluation cadence matches the
// sync layout, and the model actually improves.
func TestAsyncConverges(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := asyncBase(core.AsyncTotal)
	hist, err := launch(t, fed, mdl, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantPoints := 1 + cfg.Rounds/cfg.EvalEvery // round 0 + every EvalEvery (final coincides)
	if len(hist.Points) != wantPoints {
		t.Fatalf("points = %d, want %d", len(hist.Points), wantPoints)
	}
	if !hist.TracksStaleness() {
		t.Fatal("async history has no staleness columns")
	}
	first, last := hist.Points[0], hist.Final()
	if !(last.TrainLoss < first.TrainLoss) {
		t.Fatalf("async did not improve: loss %g -> %g", first.TrainLoss, last.TrainLoss)
	}
	if math.IsNaN(last.MeanStaleness) || last.MaxStaleness < last.MeanStaleness {
		t.Fatalf("implausible staleness stats: mean %g max %g", last.MeanStaleness, last.MaxStaleness)
	}
	// Every milestone folds exactly ClientsPerRound replies — the async
	// analogue of the sync per-round participant count.
	for _, p := range hist.Points[1:] {
		if p.Participants != cfg.ClientsPerRound {
			t.Fatalf("round %d: participants %d, want %d", p.Round, p.Participants, cfg.ClientsPerRound)
		}
	}
	if first.Participants != 0 {
		t.Fatalf("round 0 participants %d, want 0", first.Participants)
	}
	if !math.IsNaN(first.MeanStaleness) {
		t.Fatalf("round 0 should not carry staleness, got %g", first.MeanStaleness)
	}
}

// TestBufferedConverges: the FedBuff-style middle ground advances one
// version per BufferK replies and still improves the model.
func TestBufferedConverges(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := asyncBase(core.Buffered)
	cfg.Async.BufferK = 4
	hist, err := launch(t, fed, mdl, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	first, last := hist.Points[0], hist.Final()
	if !(last.TrainLoss < first.TrainLoss) {
		t.Fatalf("buffered did not improve: loss %g -> %g", first.TrainLoss, last.TrainLoss)
	}
	for _, p := range hist.Points[1:] {
		if p.Participants != cfg.Async.BufferK {
			t.Fatalf("round %d: participants %d, want BufferK %d", p.Round, p.Participants, cfg.Async.BufferK)
		}
	}
	// Buffered staleness is bounded by construction: a reply can be at
	// most one flush stale per in-flight wave; sanity-check it stays
	// small on a healthy deployment.
	for _, p := range hist.Points[1:] {
		if p.MaxStaleness > float64(cfg.Rounds) {
			t.Fatalf("staleness %g exceeds version count", p.MaxStaleness)
		}
	}
}

// TestAsyncWithCodec: asynchronous aggregation composes with stateful
// codecs — chained downlinks, per-device rounding streams, and
// error-feedback residuals stay consistent even though replies
// interleave (the link state is version-aware: every uplink decodes
// against the exact broadcast view it trained from).
func TestAsyncWithCodec(t *testing.T) {
	fed, mdl := testWorkload()
	for _, spec := range []comm.Spec{
		{Name: "qsgd", Bits: 8},
		{Name: "topk", TopK: 0.25},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := asyncBase(core.AsyncTotal)
			cfg.Codec = spec
			if spec.Name == "topk" {
				cfg.DownlinkCodec = comm.Spec{Name: "raw"}
			}
			hist, err := launch(t, fed, mdl, cfg, 3)
			if err != nil {
				t.Fatal(err)
			}
			first, last := hist.Points[0], hist.Final()
			if !(last.TrainLoss < first.TrainLoss) {
				t.Fatalf("async+%s did not improve: loss %g -> %g", spec.Name, first.TrainLoss, last.TrainLoss)
			}
			c := last.Cost
			if c.UplinkBytes == 0 || c.DownlinkBytes == 0 || c.EvalBytes == 0 {
				t.Fatalf("missing analytic accounting: %+v", c)
			}
		})
	}
}

// TestAsyncOutpacesSyncUnderStraggler deploys the straggler scenario for
// real — one worker delayed 10x, the same total device work under the
// synchronous and the asynchronous coordinator — and checks only what
// the wall clock cannot flake: both deployments complete with the same
// evaluation layout, and the asynchronous History carries staleness
// columns. The claim itself (>=2x faster, final loss within 5%) is
// asserted bit-deterministically on the virtual clock by the core test
// of the same name, and nowhere on the wall clock: ext-async prints
// these runs, and experiments.TestBaseline excludes them by name.
func TestAsyncOutpacesSyncUnderStraggler(t *testing.T) {
	fed, mdl := testWorkload()

	base := core.FedProx(20, 4, 2, 0.01, 1)
	base.EvalEvery = 10
	// Worker 0 is 10x slower than the others: its devices hold the
	// deployment hostage every synchronous round they are selected in.
	const baseDelay = 3 * time.Millisecond
	solvers := []solver.LocalSolver{
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: 10 * baseDelay},
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: baseDelay},
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: baseDelay},
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: baseDelay},
	}
	deploy := func(cfg core.Config) *core.History {
		h, err := RunLoopback(mdl, fed, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()}, solvers)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}

	sync_ := deploy(base)
	acfg := base
	acfg.Async = core.AsyncConfig{Mode: core.AsyncTotal}
	async := deploy(acfg)

	if len(sync_.Points) != len(async.Points) {
		t.Errorf("sync recorded %d points, async %d", len(sync_.Points), len(async.Points))
	}
	if sync_.TracksStaleness() || !async.TracksStaleness() {
		t.Errorf("staleness columns: sync %v, async %v; want false, true", sync_.TracksStaleness(), async.TracksStaleness())
	}
}

// TestAsyncClockRequirements documents the division of labour: fednet
// executes async configs against the real clock as-is, while the
// simulator needs a virtual clock — core.Run refuses an async config
// without a latency model and accepts it with one (internal/vtime).
func TestAsyncClockRequirements(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := asyncBase(core.AsyncTotal)
	if _, err := core.Run(mdl, fed, cfg); err == nil {
		t.Fatal("simulator accepted an async config without a latency model")
	}
	if _, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()}); err != nil {
		t.Fatalf("fednet rejected an async config: %v", err)
	}
	cfg.VTime = core.VTimeConfig{Model: vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: 0.1},
		vtime.Net{UplinkBps: 1e6, DownlinkBps: 1e6},
		7,
	)}
	h, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatalf("simulator rejected an async config with a latency model: %v", err)
	}
	if !h.TracksStaleness() || !h.TracksVirtualTime() {
		t.Fatal("virtual-time async history missing staleness or clock columns")
	}
}
