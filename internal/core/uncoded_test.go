package core_test

import (
	"math"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/fednet"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
	"fedprox/internal/vtime"
)

// TestUncodedCostMatchesRaw holds Cost's one rule across executors: a run
// with no codec and the same run over the pass-through raw codec report
// the same Cost at every point (the transport's Wire* counters aside),
// the same virtual clock and the same final parameters, bit for bit —
// under drop and aggregation, untimed and on the virtual clock, at both
// widths, asynchronously, through a tier, and over a fednet loopback
// (whose wire is always raw) against its in-process twin.
func TestUncodedCostMatchesRaw(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	n := fed.NumDevices()
	clock := func(n int, seed uint64) *vtime.Model {
		return vtime.MustModel(
			vtime.UniformCompute{SecondsPerEpoch: 0.2, Speed: vtime.SlowTail(n, 0.1, 10)},
			vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.01, JitterStd: 0.2},
			seed,
		)
	}
	type run func(core.Config) (*core.History, error)
	sim := func(cfg core.Config) (*core.History, error) { return core.Run(mdl, fed, cfg) }
	type tc struct {
		name string
		cfg  core.Config
		run  run
	}
	var cases []tc
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32} {
		for _, timed := range []bool{false, true} {
			for _, method := range []string{"fedavg-drop", "fedprox-aggregate"} {
				cfg := core.FedAvg(4, 10, 5, 0.01)
				if method == "fedprox-aggregate" {
					cfg = core.FedProx(4, 10, 5, 0.01, 1)
				}
				cfg.StragglerFraction, cfg.EvalEvery, cfg.Precision = 0.5, 2, prec
				name := "sync/" + method + "/" + prec.String()
				if timed {
					cfg.VTime = core.VTimeConfig{Model: clock(n, 17)}
					name += "/vtime"
				}
				cases = append(cases, tc{name, cfg, sim})
			}
		}
		for _, mode := range []core.AggregationMode{core.AsyncTotal, core.Buffered} {
			cfg := core.FedProx(6, 5, 3, 0.01, 1)
			cfg.StragglerFraction, cfg.EvalEvery, cfg.Precision = 0.5, 2, prec
			cfg.Async = core.AsyncConfig{Mode: mode}
			cfg.VTime = core.VTimeConfig{Model: clock(n, 17)}
			cases = append(cases, tc{"async/" + mode.String() + "/" + prec.String(), cfg, sim})
		}
	}
	for _, timed := range []bool{false, true} {
		cfg := core.FedProx(4, 8, 3, 0.01, 1)
		cfg.EvalEvery = 2
		topo := tier.Topology{FanOut: 2, Depth: 1}
		name := "tiered"
		if timed {
			cfg.VTime = core.VTimeConfig{Model: clock(n, 17)}
			topo.Model = clock(16, 23)
			name += "/vtime"
		}
		cases = append(cases, tc{name, cfg, func(cfg core.Config) (*core.History, error) {
			return core.RunTiered(mdl, fed.Fleet(), cfg, topo)
		}})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			plain, err := c.run(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			coded := c.cfg
			coded.Codec = comm.Spec{Name: "raw"}
			withRaw, err := c.run(coded)
			if err != nil {
				t.Fatal(err)
			}
			sameCost(t, plain, withRaw)
		})
	}

	t.Run("fednet/sync", func(t *testing.T) {
		cfg := core.FedAvg(4, 6, 3, 0.01)
		cfg.StragglerFraction, cfg.EvalEvery = 0.5, 2
		twin, err := sim(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := fednet.RunLoopback(mdl, fed, fednet.ServerConfig{Training: cfg, ExpectDevices: n}, make([]solver.LocalSolver, 2))
		if err != nil {
			t.Fatal(err)
		}
		sameCost(t, twin, dist)
	})
}

// sameCost fails unless a and b agree point by point on Cost (but the
// transport-measured Wire* counters) and VirtualSeconds (NaN equal to
// NaN), and end on bit-identical parameters.
func sameCost(t *testing.T, a, b *core.History) {
	t.Helper()
	if len(a.Points) != len(b.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(a.Points), len(b.Points))
	}
	for i := range a.Points {
		p, q := a.Points[i], b.Points[i]
		pc, qc := p.Cost, q.Cost
		pc.WireUplinkBytes, pc.WireDownlinkBytes = 0, 0
		qc.WireUplinkBytes, qc.WireDownlinkBytes = 0, 0
		if pc != qc {
			t.Fatalf("round %d: cost %+v != %+v", p.Round, pc, qc)
		}
		if math.Float64bits(p.VirtualSeconds) != math.Float64bits(q.VirtualSeconds) &&
			!(math.IsNaN(p.VirtualSeconds) && math.IsNaN(q.VirtualSeconds)) {
			t.Fatalf("round %d: virtual seconds %.17g != %.17g", p.Round, p.VirtualSeconds, q.VirtualSeconds)
		}
	}
	if len(a.FinalParams) != len(b.FinalParams) {
		t.Fatalf("final params lengths differ: %d vs %d", len(a.FinalParams), len(b.FinalParams))
	}
	for i := range a.FinalParams {
		if math.Float64bits(a.FinalParams[i]) != math.Float64bits(b.FinalParams[i]) {
			t.Fatalf("final params differ at %d: %.17g vs %.17g", i, a.FinalParams[i], b.FinalParams[i])
		}
	}
}
