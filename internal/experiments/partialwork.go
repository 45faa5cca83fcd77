package experiments

import (
	"fmt"

	"fedprox/internal/core"
	"fedprox/internal/syshet"
	"fedprox/internal/vtime"
)

func init() {
	register("ext-partialwork", "device-side compute budgets: variable local work enforced by the device runtime", extPartialWork)
}

// extPartialWork exercises the variable-local-work axis: a tiered
// syshet.Fleet acts as each device's compute budget
// (core.Config.DeviceBudget), so every dispatch is truncated by the
// DEVICE to however many epochs its hardware affords, and the server
// only learns the realized work from the reply (Reply.EpochsDone).
//
// This is the paper's partial-solution story with the enforcement on the
// correct side of the wire: unlike Config.Capability — where the server
// re-plans epoch targets and FedAvg can pre-drop the short devices — a
// device-side budget cannot be dropped in advance, so the server's only
// choice is the FedProx one: aggregate the γ-inexact partial solutions.
// Because the truncation lives in the shared core.Device runtime, all
// three executors (sync simulator, virtual-time async, fednet) inherit
// it from the same code path.
//
// The sweep compares, on Synthetic(1,1):
//
//   - full-work: FedProx with every device completing E epochs,
//   - budget mu=0: partial solutions aggregated without the proximal
//     term (FedAvg's aggregation faced with work it cannot drop),
//   - budget prox: FedProx over the same partial solutions,
//
// and then reruns the full-vs-budget pair on the virtual clock with the
// SAME fleet as the compute model, so a device that stops at its budget
// also returns early: the budget run finishes in less virtual time
// because the compute leg charges the epochs actually run.
func extPartialWork(o Options) *Result {
	w := o.load("synthetic")
	sizes, mean := trainSizes(w.Fleet)
	// Deadline calibrated so a mid-tier device completes about half of E
	// epochs on the mean shard: a strongly work-limited fleet.
	fleet := syshet.NewFleet(syshet.Config{
		Deadline:  syshet.DeadlineFor(o.LocalEpochs/2+1, mean, 10, 10),
		JitterStd: 0.3,
		BatchSize: 10,
		Seed:      o.Seed + 5,
	}, sizes)

	base := o.base(w)
	budget := func(cfg core.Config) core.Config {
		cfg.DeviceBudget = fleet
		return cfg
	}
	net := vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.02, JitterStd: 0.1}
	vtimed := func(cfg core.Config) core.Config {
		// The same fleet that bounds each device's work also prices it:
		// syshet.Fleet is both a core.CapabilityModel and a
		// vtime.ComputeModel.
		cfg.VTime = core.VTimeConfig{Model: vtime.MustModel(fleet, net, o.Seed+103)}
		return cfg
	}

	// The fold-weight ablation: weight each accepted update by realized
	// epochs (Reply.EpochsDone) instead of shard size, so a device that
	// ran half its budget counts half as much in the fold. Only
	// interesting under a budget — with full work the two schemes agree
	// up to a constant.
	byEpochs := func(cfg core.Config) core.Config {
		cfg.FoldWeight = core.WeightByEpochs
		return cfg
	}

	cases := []struct {
		name string
		cfg  core.Config
	}{
		{"full-work", fedprox(base, w.BestMu)},
		{"budget mu=0", budget(fedprox(base, 0))},
		{"budget prox", budget(fedprox(base, w.BestMu))},
		{"budget mu=0", byEpochs(budget(fedprox(base, 0)))},
		{"budget prox", byEpochs(budget(fedprox(base, w.BestMu)))},
		{"vtime-full", vtimed(fedprox(base, w.BestMu))},
		{"vtime-budget", vtimed(budget(fedprox(base, w.BestMu)))},
	}
	sec := Section{Name: w.name() + " + tiered compute budgets"}
	for _, tc := range cases {
		sec.requests = append(sec.requests, o.request("synthetic", tc.cfg).labelled(tc.name+" "+core.Label(tc.cfg)))
	}

	return &Result{
		Title:    "variable local work under a device-side compute budget (enforced in core.Device)",
		Sections: []Section{sec},
		finish: func(res *Result) error {
			sec := &res.Sections[0]
			for _, h := range sec.Runs {
				fin := h.Final()
				note := fmt.Sprintf("%s: final loss %.4f, device-epochs %d", h.Label, fin.TrainLoss, fin.Cost.DeviceEpochs)
				if h.TracksWork() {
					note += fmt.Sprintf(", mean epochs done %.2f/%d (%.0f%% partial)",
						fin.MeanEpochsDone, o.LocalEpochs, 100*fin.PartialFraction)
				}
				if h.TracksVirtualTime() {
					note += fmt.Sprintf(", %.1f virtual-s", fin.VirtualSeconds)
				}
				sec.Notes = append(sec.Notes, note)
			}
			fullVT, budgetVT := sec.Runs[5].Final().VirtualSeconds, sec.Runs[6].Final().VirtualSeconds // vtime-full, vtime-budget
			if budgetVT > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"the budget run finished %.1fx faster in virtual time: devices that stop at their budget also return early", fullVT/budgetVT))
			}
			res.Notes = append(res.Notes, "deterministic: the same seed reproduces every number above bit for bit;")
			return nil
		},
	}
}
