package core

import (
	"math"
	"slices"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
)

func tieredConfig(rounds int) Config {
	cfg := FedProx(rounds, 8, 3, 0.01, 1)
	cfg.EvalEvery = 2
	return cfg
}

func TestTieredFanOutOneMatchesFlat(t *testing.T) {
	m, fed := tinyWorkload()
	for _, tc := range []struct {
		name string
		prep func(*Config)
	}{
		{"sim", func(*Config) {}},
		{"sim stragglers", func(c *Config) { c.StragglerFraction = 0.5 }},
		{"vtime", func(c *Config) {
			c.VTime = VTimeConfig{Model: vtimeModel(fed.NumDevices(), 17), DeadlineSeconds: 60}
		}},
		{"codec", func(c *Config) { c.Codec = comm.Spec{Name: "qsgd", Bits: 8} }},
	} {
		cfg := tieredConfig(4)
		tc.prep(&cfg)
		flat, err := Run(m, fed, cfg)
		if err != nil {
			t.Fatalf("%s: flat: %v", tc.name, err)
		}
		// Fan-out 1 disables the hierarchy entirely, so the tiered entry
		// point must reproduce the flat run bit for bit.
		tiered, err := RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 1, Depth: 1})
		if err != nil {
			t.Fatalf("%s: tiered: %v", tc.name, err)
		}
		if !historiesEqual(flat, tiered) {
			t.Fatalf("%s: fan-out-1 tiered history differs from flat", tc.name)
		}
	}
}

func TestTieredDeterministicPerSeed(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := tieredConfig(4)
	cfg.StragglerFraction = 0.5
	topo := tier.Topology{FanOut: 2, Depth: 1}
	a, err := RunTiered(m, fed.Fleet(), cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTiered(m, fed.Fleet(), cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(a, b) {
		t.Fatal("same-seed tiered runs differ")
	}
	if !strings.Contains(a.Label, "[tier f=2 d=1]") {
		t.Fatalf("label missing tier suffix: %q", a.Label)
	}
}

func TestTieredRootIngressShrinksByFanOut(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := tieredConfig(4)
	flat, err := Run(m, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 2, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Without a codec every reply is paramBytes, so root ingress is
	// exactly replies × paramBytes: K per round flat, K/F per window
	// tiered.
	fu := flat.Points[len(flat.Points)-1].Cost.UplinkBytes
	tu := tiered.Points[len(tiered.Points)-1].Cost.UplinkBytes
	if fu != 2*tu {
		t.Fatalf("root ingress: flat %d, tiered %d, want exactly 2x reduction", fu, tu)
	}
	// The fold still learns: the final loss is finite and improves on
	// the round-0 measurement.
	first, last := tiered.Points[0].TrainLoss, tiered.Points[len(tiered.Points)-1].TrainLoss
	if math.IsNaN(last) || last >= first {
		t.Fatalf("tiered loss did not improve: %g -> %g", first, last)
	}
}

func TestTieredDepthTwo(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := tieredConfig(3)
	// F=2, d=2: width 4 divides K=8; the root contacts 2 interior
	// aggregators, each fanning into 2 leaf edges.
	h, err := RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 2, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	paramBytes := rawBytes(m.NumParams(), tensor.F64)
	want := int64(3) * 2 * paramBytes // rounds × root cohort × raw reply
	if got := h.Points[len(h.Points)-1].Cost.UplinkBytes; got != want {
		t.Fatalf("depth-2 root ingress %d, want %d", got, want)
	}
	if last := h.Points[len(h.Points)-1].TrainLoss; math.IsNaN(last) {
		t.Fatal("depth-2 run recorded NaN loss")
	}
}

func TestTieredVTime(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := tieredConfig(4)
	cfg.VTime = VTimeConfig{Model: vtimeModel(fed.NumDevices(), 17)}
	topo := tier.Topology{FanOut: 2, Depth: 1, Model: vtimeModel(16, 23)}
	h, err := RunTiered(m, fed.Fleet(), cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, p := range h.Points {
		if math.IsNaN(p.VirtualSeconds) || p.VirtualSeconds < last {
			t.Fatalf("virtual clock not monotone: %v", p.VirtualSeconds)
		}
		last = p.VirtualSeconds
	}
	if last == 0 {
		t.Fatal("virtual clock never advanced")
	}
	// The root's arrival trace records its edge replies: cohort × rounds.
	if want := 4 * 4; len(h.Arrivals) != want {
		t.Fatalf("root arrivals %d, want %d", len(h.Arrivals), want)
	}
	// Same-seed timed runs are bit-deterministic too.
	h2, err := RunTiered(m, fed.Fleet(), cfg, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !historiesEqual(h, h2) {
		t.Fatal("same-seed timed tiered runs differ")
	}
}

func TestTieredCodecComposesPerHop(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := tieredConfig(3)
	cfg.Codec = comm.Spec{Name: "qsgd", Bits: 4}
	h, err := RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 2, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	paramBytes := rawBytes(m.NumParams(), tensor.F64)
	raw := int64(3) * 4 * paramBytes // what raw edge→root replies would cost
	got := h.Points[len(h.Points)-1].Cost.UplinkBytes
	if got == 0 || got >= raw {
		t.Fatalf("encoded root ingress %d, want in (0, %d)", got, raw)
	}
	if last := h.Points[len(h.Points)-1].TrainLoss; math.IsNaN(last) || math.IsInf(last, 0) {
		t.Fatalf("codec tiered run diverged: %v", last)
	}
}

// TestTieredRejectsUnsupportedAxes: a topology the cohort or the fleet
// cannot fill is refused (the config options RunTiered refuses are
// TestSupportMatrix's, in internal/fednet).
func TestTieredRejectsUnsupportedAxes(t *testing.T) {
	m, fed := tinyWorkload()
	// Topology validation: K must be divisible by FanOut^Depth, and the
	// fleet must host the cohort.
	cfg := tieredConfig(3)
	if _, err := RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 3, Depth: 1}); err == nil {
		t.Error("indivisible fan-out accepted")
	}
	cfg.ClientsPerRound = 32
	if _, err := RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 2, Depth: 1}); err == nil {
		t.Error("cohort larger than fleet accepted")
	}
}

// TestSteppedCoordinatorPauseResume drives one Edge by hand: what its
// inner coordinator's windowing refuses, what a window broadcasts, and
// what comes back upstream.
func TestSteppedCoordinatorPauseResume(t *testing.T) {
	m, fed := tinyWorkload()
	cfg := tieredConfig(2)
	coord, err := NewCoordinator(m, cfg, CoordinatorOptions{NumDevices: fed.NumDevices(), Tier: 2})
	if err != nil {
		t.Fatal(err)
	}
	edge, err := NewEdge(coord, 3)
	if err != nil {
		t.Fatal(err)
	}
	dev := newFleetDevice(m, fed.Fleet(), DeviceOptions{})
	if _, err := coord.RegisterWorker(dev.Hosted()); err != nil {
		t.Fatal(err)
	}
	view := make([]float64, m.NumParams())
	for i := range view {
		view[i] = float64(i%7) * 0.01
	}
	if _, err := edge.HandleDispatch(Dispatch{Device: 3, Epochs: 2, View: view}); err == nil {
		t.Fatal("window before Start accepted")
	}
	sent, rebased := 0, true
	b := &simBackend{inProcess: inProcess{coord: coord}, serve: func(ds []Dispatch) ([]Reply, error) {
		for _, d := range ds { // without links View is the model itself: compare before the fold
			sent++
			rebased = rebased && slices.Equal(d.View, view)
		}
		return runDispatches(dev, 1, nil, ds)
	}}
	if err := edge.Start(b, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := edge.HandleDispatch(Dispatch{Device: 3, Epochs: 2, View: make([]float64, 1)}); err == nil || !strings.Contains(err.Error(), "parameter length 1") {
		t.Fatalf("window with a mismatched view: %v, want the length named", err)
	}
	// Re-based on the parent's view: the window's broadcasts carry it, and
	// the fold comes back as pseudo-device 3's full-target solution.
	r, err := edge.HandleDispatch(Dispatch{Device: 3, Epochs: 2, View: view})
	if err != nil {
		t.Fatal(err)
	}
	if sent != cfg.ClientsPerRound {
		t.Fatalf("dispatches %d, want %d", sent, cfg.ClientsPerRound)
	}
	if !rebased {
		t.Fatal("broadcast view not re-based on the parent's view")
	}
	if r.Device != 3 || r.EpochsDone != 2 || len(r.Params) != len(view) || slices.Equal(r.Params, view) {
		t.Fatalf("reply %+v, want device 3's trained fold at the dispatched target", r)
	}
	// An edge measures nothing: no point was recorded, and in process no
	// evaluation is forwarded through it either.
	if n := len(coord.History().Points); n != 0 {
		t.Fatalf("windowed coordinator recorded %d points", n)
	}
	if _, err := edge.HandleEval(EvalRequest{Params: view}); err == nil {
		t.Fatal("in-process edge accepted an evaluation")
	}
	// One window at a time.
	if _, err := coord.window(view); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.window(view); err == nil {
		t.Fatal("second window opened while one is outstanding")
	}
	// An edge's coordinator is built as one, so the support table has
	// refused what an edge cannot run.
	root, err := NewCoordinator(m, cfg, CoordinatorOptions{NumDevices: 4, Tier: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEdge(root, 0); err == nil || !strings.Contains(err.Error(), "Tier >= 2") {
		t.Fatalf("edge over a root coordinator: %v, want the Tier named", err)
	}
}

func TestFoldStaleDeltasTierDepthDamping(t *testing.T) {
	// In a depth-d hierarchy an edge's contribution reaches the root d
	// windows after the view it trained from was broadcast, so a
	// staleness-damped root fold sees s = tier depth. The fold must damp
	// by exactly alpha/(1+s)^p, monotonically in depth.
	const alpha, p = 0.6, 1.0
	delta := []float64{1, -2, 4}
	prev := 0.0
	for depth := 0; depth <= 3; depth++ {
		w := make([]float64, len(delta))
		batch := []StaleDelta{{Delta: delta, Weight: 5, Version: 7 - depth}}
		if !FoldStaleDeltas(w, batch, 7, UniformWeightedAvg, alpha, p) {
			t.Fatalf("depth %d: fold reported no advance", depth)
		}
		damp := alpha / math.Pow(1+float64(depth), p)
		for i := range w {
			if diff := math.Abs(w[i] - damp*delta[i]); diff > 1e-12 {
				t.Fatalf("depth %d: w[%d] = %g, want %g", depth, i, w[i], damp*delta[i])
			}
		}
		if depth > 0 && math.Abs(w[0]) >= prev {
			t.Fatalf("depth %d folded no weaker than depth %d", depth, depth-1)
		}
		prev = math.Abs(w[0])
	}
	// An empty batch must not advance the model.
	if FoldStaleDeltas(make([]float64, 3), nil, 7, UniformWeightedAvg, alpha, p) {
		t.Fatal("empty batch reported an advance")
	}
}
