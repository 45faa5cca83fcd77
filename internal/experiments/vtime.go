package experiments

import (
	"fmt"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/vtime"
)

func init() {
	register("ext-vtime", "virtual-time simulation: sync vs async vs straggler policies under a 10x-slow tail", extVTime)
}

// The ext-vtime fleet shape: the last 10% of devices compute 10x slower.
const (
	vtimeSlowFactor      = 10
	vtimeTailFrac        = 0.1
	vtimeSecondsPerEpoch = 0.05
)

// vtimeNet is the shared network model all ext-vtime cases charge
// transfer time against.
var vtimeNet = vtime.Net{UplinkBps: 1e6, DownlinkBps: 4e6, Latency: 0.02, JitterStd: 0.1}

// vtimeCase is one named configuration of the ext-vtime sweep.
type vtimeCase struct {
	name string
	cfg  core.Config
}

// extVTimeCases builds the workload and the six-case sweep — the single
// source of truth for what ext-vtime runs, shared by the experiment
// itself and by ReplayCases (cmd/fedtrace must rebuild the exact
// configuration a recorded case executed under).
func extVTimeCases(o Options) (Workload, []vtimeCase) {
	w := o.load("synthetic")
	base := o.base(w)
	// The paper's systems-heterogeneity knob (partial epoch budgets)
	// stays on, as in ext-async.
	base.StragglerFraction = 0.5

	n := w.Fleet.NumDevices()
	lat := vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: vtimeSecondsPerEpoch, Speed: vtime.SlowTail(n, vtimeTailFrac, vtimeSlowFactor)},
		vtimeNet,
		o.Seed+101,
	)
	vt := core.VTimeConfig{Model: lat}

	// Policy defaults derived from the model: the deadline fits a full
	// nominal round-trip with ~2x headroom (the 10x tail cannot make
	// it); the byte budget pays for ~70% of a full round's traffic, so
	// the latest ~30% of arrivals are dropped by bytes.
	paramBytes := float64(w.Model.NumParams() * 8)
	deadline := o.VTimeDeadline
	if deadline == 0 {
		nominal := paramBytes/vtimeNet.DownlinkBps + float64(o.LocalEpochs)*vtimeSecondsPerEpoch + paramBytes/vtimeNet.UplinkBps + 2*vtimeNet.Latency
		deadline = 2 * nominal
	}
	roundBytes := o.VTimeRoundBytes
	if roundBytes == 0 {
		roundBytes = int64(0.7 * float64(base.ClientsPerRound) * 2 * paramBytes)
	}
	withDeadline := vt
	withDeadline.DeadlineSeconds = deadline
	withBudget := vt
	withBudget.RoundBytes = roundBytes

	async := core.AsyncConfig{
		Mode:              core.AsyncTotal,
		Alpha:             o.AsyncAlpha,
		StalenessExponent: o.AsyncStalenessExp,
	}
	buffered := async
	buffered.Mode = core.Buffered
	buffered.BufferK = o.AsyncBufferK

	vtimed := func(cfg core.Config, v core.VTimeConfig) core.Config {
		cfg.VTime = v
		return cfg
	}
	return w, []vtimeCase{
		{"sync-drop", vtimed(fedavg(base), vt)},
		{"sync-partial", vtimed(fedprox(base, w.BestMu), vt)},
		{"sync-deadline", vtimed(fedprox(base, w.BestMu), withDeadline)},
		{"sync-budget", vtimed(fedprox(base, w.BestMu), withBudget)},
		{"async", vtimed(withAsync(fedprox(base, w.BestMu), async), vt)},
		{"buffered", vtimed(withAsync(fedprox(base, w.BestMu), buffered), vt)},
	}
}

// ReplayCase is one named (model, fleet, config) triple of a
// trace-recording experiment: everything cmd/fedtrace needs to replay a
// recorded run segment under the recorded — or an alternative — policy
// via core.Replay.
type ReplayCase struct {
	Name   string
	Model  model.Model
	Fleet  core.Fleet
	Config core.Config
}

// ReplayCases reconstructs the case list an experiment ran, in emission
// order: a multi-run trace's i-th run segment was produced by the i-th
// case. Match by index, not by label — core.Label is ambiguous between
// cases that differ only in clock policy (sync-partial vs
// sync-deadline). The returned Configs carry no trace sink.
func ReplayCases(id string, o Options) ([]ReplayCase, error) {
	if id != "ext-vtime" {
		return nil, fmt.Errorf("experiments: %q does not record replayable virtual-time traces (only ext-vtime does)", id)
	}
	o.Trace = nil
	w, cases := extVTimeCases(o)
	fleet := data.Generate(w.Fleet).Fleet()
	out := make([]ReplayCase, len(cases))
	for i, tc := range cases {
		out[i] = ReplayCase{Name: tc.name, Model: w.Model, Fleet: fleet, Config: tc.cfg}
	}
	return out, nil
}

// extVTime is the offline counterpart of ext-async: the same aggregation
// disciplines under the same 10x straggler shape, but executed entirely
// in the simulator against the internal/vtime virtual clock, so the
// comparison is bit-reproducible (the fednet sweep's wall-clock numbers
// jitter run to run; these never do). The fleet's slow tail is the last
// 10% of devices at 10x-slower compute and the network charges transfer
// time on encoded bytes, so every run reports a deterministic virtual
// duration next to its loss:
//
//   - sync-drop: lock-step rounds, stragglers dropped (FedAvg). Every
//     round that selects a tail device pays the tail's latency.
//   - sync-partial: lock-step rounds, partial work aggregated (FedProx).
//     Same round barrier, same tail tax.
//   - sync-deadline: FedProx under VTime.DeadlineSeconds — the
//     clock-native straggler policy. Rounds close at the deadline; tail
//     replies that miss it are dropped by time, not by epoch budget.
//   - sync-budget: FedProx under VTime.RoundBytes — the codec-aware
//     policy from the ROADMAP: the round accepts replies in arrival
//     order until its wire-byte budget is spent and drops the tail by
//     deadline bytes.
//   - async: staleness-damped fold per reply (core.AsyncTotal) on the
//     event queue; tail devices delay only their own contributions.
//   - buffered: FedBuff-style flush every K replies (core.Buffered).
//
// All six runs perform the same total device work (Rounds milestones of
// ClientsPerRound folds — minus what a policy deliberately drops), so
// virtual-duration differences are pure scheduling.
func extVTime(o Options) *Result {
	w, cases := extVTimeCases(o)
	sec := Section{Name: w.name() + fmt.Sprintf(" + %dx-slow tail", vtimeSlowFactor)}
	for _, tc := range cases {
		sec.requests = append(sec.requests, o.request("synthetic", tc.cfg).labelled(tc.name+" "+core.Label(tc.cfg)))
	}
	return &Result{
		Title: fmt.Sprintf("virtual-time disciplines under a %dx-slow %.0f%% tail (%d devices, deterministic clock)",
			vtimeSlowFactor, vtimeTailFrac*100, w.Fleet.NumDevices()),
		Sections: []Section{sec},
		finish: func(res *Result) error {
			sec := &res.Sections[0]
			for i, tc := range cases {
				h := sec.Runs[i]
				fin := h.Final()
				dropped := 0
				for _, a := range h.Arrivals {
					if a.Drop != core.ArrivalFolded {
						dropped++
					}
				}
				note := fmt.Sprintf("%s: %.1f virtual-s, final loss %.4f", tc.name, fin.VirtualSeconds, fin.TrainLoss)
				if dropped > 0 {
					note += fmt.Sprintf(", %d replies cut by the clock policy", dropped)
				}
				if h.TracksStaleness() {
					note += fmt.Sprintf(", staleness mean %.2f max %.0f", fin.MeanStaleness, fin.MaxStaleness)
				}
				sec.Notes = append(sec.Notes, note)
			}
			syncVT, asyncVT := sec.Runs[1].Final().VirtualSeconds, sec.Runs[4].Final().VirtualSeconds // sync-partial, async
			if asyncVT > 0 {
				res.Notes = append(res.Notes, fmt.Sprintf(
					"async completed the same device work %.1fx faster in virtual time than sync-partial", syncVT/asyncVT))
			}
			res.Notes = append(res.Notes, "deterministic: the same seed reproduces every number above bit for bit;")
			return nil
		},
	}
}
