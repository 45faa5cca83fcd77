// Package feddane implements the FedDane baseline of Appendix B, Figure 4:
// DANE/AIDE's proximal-plus-gradient-correction local objective adapted to
// federated constraints (local updating, low device participation).
//
// Each round, the server estimates the full gradient ∇f(wᵗ) from a sampled
// subset of devices, and every selected device k approximately minimizes
//
//	F_k(w) + ⟨ĝ − ∇F_k(wᵗ), w⟩ + (μ/2)·‖w − wᵗ‖²
//
// where ĝ is the sampled-gradient estimate. The paper shows this
// correction — effective in data-center settings where all machines
// participate — destabilizes under federated sampling because ĝ is a
// stale, inexact estimate; FedProx drops the correction term and is the
// stabler method. This package exists to regenerate that comparison.
//
// A FedDane run is a core.Backend under core.Drive over the shared
// core.Coordinator, so selection, stragglers, aggregation, evaluation
// cadence, Cost, trace events and the History are a FedProx run's under
// the same seed: only the local objective differs. Two consequences:
//
//   - Cost charges the training dispatches the coordinator issues, not the
//     gradient-estimation exchange (ĝ's broadcast and the c devices'
//     gradient uploads), which has no dispatch of its own.
//   - The gradient set is built from the devices the round contacts. Under
//     core.DropStragglers a designated straggler is never contacted, so it
//     supplies no gradient; the set is widened to c from the lowest-index
//     devices outside the contacted cohort.
package feddane

import (
	"fmt"
	"slices"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// Config extends the core configuration with the gradient-estimation
// sample size.
type Config struct {
	core.Config
	// GradClients is c, the number of devices sampled to estimate ∇f(wᵗ)
	// (Figure 4 sweeps c ∈ {10, 20, 30}). Zero uses ClientsPerRound.
	GradClients int
}

// Run executes one FedDane run and returns its trajectory. The environment
// (selection, stragglers, batch order, init) is identical to a core.Run
// under the same seed, so FedDane and FedProx trajectories are directly
// comparable. Options the FedDane solve does not implement are refused.
func Run(m model.Model, fed *data.Federated, cfg Config) (*core.History, error) {
	b, cmds, err := start(m, fed, cfg)
	if err != nil {
		return nil, err
	}
	if _, err := core.Drive(b.coord, b, cmds); err != nil {
		return nil, err
	}
	h := b.coord.History()
	h.Label = b.label
	return h, nil
}

// start builds a run's coordinator, every device registered, and its
// backend, and starts the run: the returned commands are round 0's.
func start(m model.Model, fed *data.Federated, cfg Config) (*backend, []core.Command, error) {
	if err := refuse(cfg.Config); err != nil {
		return nil, nil, err
	}
	c := cfg.GradClients
	if c <= 0 {
		c = cfg.ClientsPerRound
	}
	label := fmt.Sprintf("FedDane(mu=%g,c=%d)", cfg.Mu, c)
	if cfg.Trace != nil {
		cfg.Trace = relabel{cfg.Trace, label}
	}
	n := fed.NumDevices()
	coord, err := core.NewCoordinator(m, cfg.Config, core.CoordinatorOptions{NumDevices: n})
	if err != nil {
		return nil, nil, err
	}
	regs := make([]core.DeviceReg, n)
	for k, s := range fed.Shards {
		regs[k] = core.DeviceReg{ID: k, TrainSize: len(s.Train)}
	}
	if _, err := coord.RegisterWorker(regs); err != nil {
		return nil, nil, err
	}
	cmds, err := coord.Start()
	if err != nil {
		return nil, nil, err
	}
	b := &backend{coord: coord, label: label, m: m, fed: fed, weights: fed.Weights(), c: min(c, n), parallelism: cfg.Parallelism}
	return b, cmds, nil
}

// refuse names the first option set in cfg that the FedDane solve does
// not implement: it runs full-width SGD with the correction term on raw
// parameters, one synchronous round at a time.
func refuse(cfg core.Config) error {
	var option string
	switch {
	case cfg.Codec.Enabled():
		option = "Codec"
	case cfg.DownlinkCodec.Enabled():
		option = "DownlinkCodec"
	case cfg.Precision == tensor.F32:
		option = "Precision f32"
	case cfg.Solver != nil:
		option = "Solver"
	case cfg.Privacy != nil:
		option = "Privacy"
	case cfg.TrackGamma:
		option = "TrackGamma"
	case cfg.DeviceBudget != nil:
		option = "DeviceBudget"
	case cfg.AdaptiveMu:
		option = "AdaptiveMu"
	case cfg.Async.Enabled():
		option = "Async"
	case cfg.VTime.Enabled():
		option = "VTime"
	default:
		return nil
	}
	return fmt.Errorf("feddane: cannot run %s", option)
}

// backend executes the coordinator's commands in process: a round's
// cohort is solved against the broadcast with the gradient correction,
// and the model is measured over the whole network. Nothing else: refuse
// keeps out every run that would need a Wait, a loss or a clock.
type backend struct {
	coord       *core.Coordinator
	label       string
	m           model.Model
	fed         *data.Federated
	weights     []float64 // p_k = n_k/n
	c           int       // gradient-estimation sample size, at most N
	parallelism int
}

// Dispatch serves one round's cohort. ĝ is estimated at the broadcast over
// the contacted devices widened to c, and each device solves its corrected
// subproblem; the replies carry raw solutions, which the coordinator owns.
func (b *backend) Dispatch(ds []core.Dispatch) ([]core.Reply, error) {
	contacted := make([]int, len(ds))
	for i, d := range ds {
		if d.Round != ds[0].Round {
			return nil, fmt.Errorf("feddane: one dispatch batch spans rounds %d and %d", ds[0].Round, d.Round)
		}
		b.coord.DispatchSent(d.Device)
		contacted[i] = d.Device
	}
	w, n := ds[0].View, b.m.NumParams()

	// Gradient-estimation set: the contacted devices, widened with the
	// lowest-index others when c exceeds the cohort. Sampling more devices
	// narrows the gap between ĝ and the true full gradient (the
	// bottom-row sweep of Figure 4). devs lists the cohort first, then
	// the widening, so grads[i] is ds[i]'s and the set is devs[:c].
	devs := widen(contacted, max(b.c, len(ds)), b.fed.NumDevices())
	grads := make([][]float64, len(devs))
	tensor.ParallelFor(len(devs), b.parallelism, func(i int) {
		grads[i] = make([]float64, n)
		b.m.Grad(grads[i], w, b.fed.Shards[devs[i]].Train)
	})

	// ĝ = Σ_{k∈gradSet} p_k ∇F_k(wᵗ) / Σ_{k∈gradSet} p_k.
	ghat := make([]float64, n)
	totalP := 0.0
	for i, k := range devs[:b.c] {
		tensor.Axpy(b.weights[k], grads[i], ghat)
		totalP += b.weights[k]
	}
	if totalP > 0 {
		tensor.Scale(1/totalP, ghat)
	}

	replies := make([]core.Reply, len(ds))
	tensor.ParallelFor(len(ds), b.parallelism, func(i int) {
		d := ds[i]
		scfg := d.SolverConfig()
		scfg.Correction = make([]float64, n) // ĝ − ∇F_k(wᵗ)
		tensor.Sub(scfg.Correction, ghat, grads[i])
		wk := solver.SGD(b.m, b.fed.Shards[d.Device].Train, w, scfg, d.Epochs, frand.New(d.BatchSeed))
		replies[i] = core.Reply{Device: d.Device, Params: wk, EpochsDone: d.Epochs}
	})
	return replies, nil
}

func (b *backend) Evaluate(v core.Evaluate) (res core.EvalResult, err error) {
	fl := b.fed.Fleet()
	res.Loss, res.Acc = metrics.FleetEval(b.m, fl, v.Params)
	if v.TrackDissimilarity {
		res.GradVar, res.B = metrics.FleetDissimilarity(b.m, fl, v.Params)
	}
	return res, nil
}

// relabel names the run FedDane in its trace, where the coordinator
// stamps the run-start event with core.Label.
type relabel struct {
	obs.Sink
	label string
}

func (r relabel) Emit(e obs.Event) {
	if e.Kind == obs.KindRunStart {
		e.Label = r.label
	}
	r.Sink.Emit(e)
}

// widen extends selected to size c with the smallest-index devices not
// already present, after selected's own; a c below len(selected)
// truncates it.
func widen(selected []int, c, numDevices int) []int {
	if len(selected) >= c {
		return selected[:c]
	}
	out := slices.Clone(selected)
	for k := 0; k < numDevices && len(out) < c; k++ {
		if !slices.Contains(selected, k) {
			out = append(out, k)
		}
	}
	return out
}
