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
package feddane

import (
	"fmt"
	"math"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
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
// comparable.
func Run(m model.Model, fed *data.Federated, cfg Config) (*core.History, error) {
	if err := cfg.Config.Validate(); err != nil {
		return nil, err
	}
	c := cfg.GradClients
	if c <= 0 {
		c = cfg.ClientsPerRound
	}
	if c > fed.NumDevices() {
		c = fed.NumDevices()
	}
	env := core.NewEnv(fed, cfg.Config)
	ecfg := env.Config()
	w := m.InitParams(env.InitRNG())

	hist := &core.History{Label: labelFor(cfg)}
	record := func(round, participants int) {
		p := core.Point{
			Round:          round,
			GradVar:        math.NaN(),
			B:              math.NaN(),
			Mu:             ecfg.Mu,
			MeanGamma:      math.NaN(),
			Participants:   participants,
			MeanStaleness:  math.NaN(),
			MaxStaleness:   math.NaN(),
			VirtualSeconds: math.NaN(),
		}
		p.TrainLoss, p.TestAcc = metrics.Eval(m, fed, w)
		if ecfg.TrackDissimilarity {
			p.GradVar, p.B = metrics.Dissimilarity(m, fed, w)
		}
		hist.Points = append(hist.Points, p)
	}
	record(0, 0)

	weights := env.Weights()
	scratch := make([]float64, m.NumParams())
	for t := 0; t < ecfg.Rounds; t++ {
		selected := env.SelectDevices(t)
		epochs, straggler := env.StragglerPlan(t, selected)

		// Gradient-estimation set: the selected devices, widened with the
		// lowest-index unselected devices when c > K. Sampling more devices
		// narrows the gap between ĝ and the true full gradient (the
		// bottom-row sweep of Figure 4).
		gradSet := widen(selected, c, fed.NumDevices())

		// ĝ = Σ_{k∈gradSet} p_k ∇F_k(wᵗ) / Σ_{k∈gradSet} p_k.
		ghat := make([]float64, m.NumParams())
		totalP := 0.0
		localGrads := make(map[int][]float64, len(gradSet))
		for _, k := range gradSet {
			g := make([]float64, m.NumParams())
			m.Grad(g, w, fed.Shards[k].Train)
			localGrads[k] = g
			tensor.Axpy(weights[k], g, ghat)
			totalP += weights[k]
		}
		if totalP > 0 {
			tensor.Scale(1/totalP, ghat)
		}

		var params [][]float64
		var nks []float64
		for i, k := range selected {
			if ecfg.Straggler == core.DropStragglers && straggler[i] {
				continue
			}
			gk, ok := localGrads[k]
			if !ok {
				gk = make([]float64, m.NumParams())
				m.Grad(gk, w, fed.Shards[k].Train)
			}
			// correction = ĝ − ∇F_k(wᵗ).
			corr := scratch
			tensor.Sub(corr, ghat, gk)
			scfg := solver.Config{
				LearningRate: ecfg.LearningRate,
				BatchSize:    ecfg.BatchSize,
				Mu:           ecfg.Mu,
				Correction:   tensor.Clone(corr),
			}
			wk := solver.SGD(m, fed.Shards[k].Train, w, scfg, epochs[i], env.BatchRNG(t, k))
			params = append(params, wk)
			nks = append(nks, float64(len(fed.Shards[k].Train)))
		}
		if len(params) > 0 {
			switch ecfg.Sampling {
			case core.WeightedSimpleAvg:
				tensor.Mean(w, params)
			default:
				tensor.WeightedMean(w, params, nks)
			}
		}
		if (t+1)%ecfg.EvalEvery == 0 || t == ecfg.Rounds-1 {
			record(t+1, len(params))
		}
	}
	return hist, nil
}

// widen extends selected to size c with the smallest-index devices not
// already present. Order carries no meaning for gradient estimation.
func widen(selected []int, c, numDevices int) []int {
	if len(selected) >= c {
		return selected[:c]
	}
	out := append([]int(nil), selected...)
	in := make(map[int]bool, len(selected))
	for _, k := range selected {
		in[k] = true
	}
	for k := 0; k < numDevices && len(out) < c; k++ {
		if !in[k] {
			out = append(out, k)
		}
	}
	return out
}

func labelFor(cfg Config) string {
	c := cfg.GradClients
	if c <= 0 {
		c = cfg.ClientsPerRound
	}
	return fmt.Sprintf("FedDane(mu=%g,c=%d)", cfg.Mu, c)
}
