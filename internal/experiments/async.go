package experiments

import (
	"fmt"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/fednet"
	"fedprox/internal/model/linear"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
)

func init() {
	register("ext-async", "async/buffered aggregation under a 10x wall-clock straggler (fednet deployment)", finishOnly(extAsync))
}

// extAsync reproduces the paper's straggler scenario on the real
// distributed runtime with wall-clock heterogeneity instead of simulated
// epoch budgets alone: four in-process fednet deployments share one
// synthetic workload and one fleet shape — three fast workers plus one
// worker whose devices are 10x slower — and differ only in aggregation
// discipline:
//
//   - sync-drop: lock-step rounds, stragglers dropped (FedAvg)
//   - sync-partial: lock-step rounds, partial work aggregated (FedProx)
//   - async: staleness-damped fold per reply (core.AsyncTotal)
//   - buffered: FedBuff-style flush every K replies (core.Buffered)
//
// Both synchronous modes pay the slow worker's latency every round it is
// selected in; the asynchronous modes keep folding fast replies while
// the slow devices finish in their own time. Wall-clock, final loss, and
// staleness land in the section notes and in BenchEntries; the two
// asynchronous runs fold replies in arrival order, so TestBaseline
// compares only the synchronous pair, and each re-executes from its
// trace (core.Reexecute): its note reports whether every input and every
// evaluation on the tape was reproduced bit for bit, or the first tape
// entry that was not.
func extAsync(o Options, res *Result) error {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(o.Scale))
	mdl := linear.ForDataset(fed)
	base := o.base(Workload{LR: 0.01, Rounds: o.Rounds})
	// The paper's systems-heterogeneity knob (partial epoch budgets)
	// stays on so sync-drop vs sync-partial reproduces Section 5.2's
	// comparison inside the same sweep.
	base.StragglerFraction = 0.5

	const workers = 4
	const slowFactor = 10
	baseDelay := 2 * time.Millisecond
	solvers := make([]solver.LocalSolver, workers)
	for i := range solvers {
		d := baseDelay
		if i == 0 {
			d = slowFactor * baseDelay
		}
		solvers[i] = solver.Delayed{Inner: solver.SGDSolver{}, Delay: d}
	}

	async := core.AsyncConfig{
		Mode:              core.AsyncTotal,
		Alpha:             o.AsyncAlpha,
		StalenessExponent: o.AsyncStalenessExp,
	}
	buffered := async
	buffered.Mode = core.Buffered
	buffered.BufferK = o.AsyncBufferK

	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"sync-drop", fedavg(base)},
		{"sync-partial", fedprox(base, 1)},
		{"async", withAsync(fedprox(base, 1), async)},
		{"buffered", withAsync(fedprox(base, 1), buffered)},
	}

	res.Title = fmt.Sprintf("aggregation disciplines under a %dx straggler worker (%d workers, fednet over loopback)",
		slowFactor, workers)
	sec := Section{Name: fed.Name + " + 10x straggler worker"}
	for _, tc := range cases {
		var tape obs.Tape
		cfg := tc.cfg
		cfg.Trace = obs.Multi(cfg.Trace, &tape)
		start := time.Now()
		h, err := fednet.RunLoopback(mdl, fed, fednet.ServerConfig{
			Training:      cfg,
			ExpectDevices: fed.NumDevices(),
		}, solvers)
		secs := time.Since(start).Seconds()
		if err != nil {
			return fmt.Errorf("ext-async %s: %w", tc.name, err)
		}
		fin := h.Final()
		note := fmt.Sprintf("%s: %.2fs wall, final loss %.4f", tc.name, secs, fin.TrainLoss)
		if h.TracksStaleness() {
			cfg.Trace = nil
			reexec := "bit-identical"
			if _, err := core.Reexecute(mdl, fed.Fleet(), cfg, tape); err != nil {
				reexec = err.Error()
			}
			note += fmt.Sprintf(", staleness mean %.2f max %.0f, re-executed: %s", fin.MeanStaleness, fin.MaxStaleness, reexec)
		}
		h.Label = tc.name + " " + h.Label
		sec.Runs = append(sec.Runs, h)
		sec.Seconds = append(sec.Seconds, secs)
		sec.Notes = append(sec.Notes, note)
	}
	if syncSecs, asyncSecs := sec.Seconds[1], sec.Seconds[2]; asyncSecs > 0 { // sync-partial, async
		res.Notes = append(res.Notes, fmt.Sprintf(
			"async completed the same device work %.1fx faster than sync-partial", syncSecs/asyncSecs))
	}
	res.Sections = append(res.Sections, sec)
	return nil
}

func withAsync(cfg core.Config, a core.AsyncConfig) core.Config {
	cfg.Async = a
	return cfg
}
