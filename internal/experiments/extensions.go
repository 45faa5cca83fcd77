package experiments

import (
	"fmt"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/imagesim"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model/linear"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/syshet"
	"fedprox/internal/theory"
)

// The ext-* experiments go beyond the paper's figures: they validate the
// theory on measured constants, replace the designated-straggler shortcut
// with an emergent capability model, demonstrate solver-agnosticism, and
// measure achieved γ-inexactness; bench_test.go's BenchmarkAblation* are
// the ablations beside them.
func init() {
	register("ext-theory", "theory validation: measured B/L/rho across the synthetic ladder", finishOnly(extTheory))
	register("ext-syshet", "capability-driven systems heterogeneity (global clock + device tiers)", extSyshet)
	register("ext-solvers", "solver-agnosticism: FedProx with SGD, momentum, Adagrad, Adam, GD", extSolvers)
	register("ext-gamma", "achieved gamma-inexactness vs local epoch budget", extGamma)
	register("ext-comm", "communication and wasted-computation accounting: drop vs aggregate", extComm)
	register("ext-nonconvex", "straggler results survive non-convexity: MLP on the MNIST surrogate", extNonconvex)
	register("ext-privacy", "update-level DP composed with FedProx: accuracy vs noise", extPrivacy)
	register("ext-bias", "dropping stragglers biases the model against the stragglers' classes", finishOnly(extBias))
}

// extBias constructs the bias scenario of Section 2: devices holding
// classes 0 and 1 carry much larger shards, so under a capability fleet
// they take longer per epoch and straggle systematically. Dropping them
// (FedAvg) starves classes 0-1 of updates; aggregating partial work
// (FedProx) keeps them in the model. Per-class accuracy makes the bias
// visible.
func extBias(o Options, res *Result) error {
	res.Title = "systematic stragglers hold classes 0-1: per-class accuracy under drop vs aggregate"
	fed := biasedDataset(o)
	mdl := linear.ForDataset(fed)
	base := o.base(Workload{LR: 0.01, Rounds: o.Rounds})
	// Uniform-speed fleet with a deadline calibrated so a device with a
	// SMALL shard (25 examples, a non-inflated device) just completes E
	// epochs; the inflated big-shard devices (the class 0-1 holders)
	// therefore straggle every round — hardware cannot rescue them,
	// isolating the data-size → straggler → bias chain.
	base.Capability = syshet.NewFleet(syshet.Config{
		Deadline:  syshet.DeadlineFor(o.LocalEpochs, 25, 10, 10),
		Tiers:     []syshet.Tier{{Name: "uniform", Share: 1, Speed: 10}},
		JitterStd: 0.1,
		BatchSize: 10,
		Seed:      o.Seed + 7,
	}, fed.TrainSizes())

	sec := Section{Name: fed.Name}
	if base.Codec.Enabled() {
		// This experiment measures per-class accuracy, not bytes; running
		// it compressed would only add quantization noise to the story.
		base.Codec, base.DownlinkCodec = comm.Spec{}, comm.Spec{}
		sec.Notes = append(sec.Notes, "update codec ignored here (bias experiment measures per-class accuracy, not bytes)")
	}
	for _, policy := range []core.StragglerPolicy{core.DropStragglers, core.AggregatePartial} {
		cfg := base
		cfg.Straggler = policy
		h, err := core.Run(mdl, fed, cfg)
		if err != nil {
			return err
		}
		h.Label = policy.String()
		sec.Runs = append(sec.Runs, h)
		acc, _ := metrics.PerClassAccuracy(mdl, fed, h.FinalParams)
		mean01 := (acc[0] + acc[1]) / 2
		rest := 0.0
		for c := 2; c < len(acc); c++ {
			rest += acc[c]
		}
		rest /= float64(len(acc) - 2)
		sec.Notes = append(sec.Notes, fmt.Sprintf(
			"%s: straggler classes 0-1 accuracy %.3f vs other classes %.3f (per-class %.2f...)",
			policy, mean01, rest, acc[:min(4, len(acc))]))
	}
	res.Sections = append(res.Sections, sec)
	return nil
}

// biasedDataset builds an image dataset where devices holding classes 0-1
// have ~8x larger shards than everyone else.
func biasedDataset(o Options) *data.Federated {
	cfg := imagesim.Config{
		Name:             "BiasedMNIST",
		Devices:          40,
		Classes:          10,
		ClassesPerDevice: 2,
		Side:             14,
		BlobsPerClass:    4,
		Noise:            0.4,
		DeviceSkew:       0.4,
		MinSamples:       15,
		MaxSamples:       30,
		PowerAlpha:       2.0,
		TrainFrac:        0.8,
		Seed:             o.Seed + 99,
	}
	fed := imagesim.Generate(cfg)
	// Inflate shards whose devices hold class 0 or 1 by repeating their
	// own examples (the device genuinely has more data of its classes).
	for _, s := range fed.Shards {
		holds01 := false
		for _, ex := range s.Train {
			if ex.Y == 0 || ex.Y == 1 {
				holds01 = true
				break
			}
		}
		if !holds01 {
			continue
		}
		orig := append([]data.Example(nil), s.Train...)
		for i := 0; i < 2; i++ {
			s.Train = append(s.Train, orig...)
		}
	}
	return fed
}

func extPrivacy(o Options) *Result {
	w := o.load("synthetic")
	sec := Section{Name: w.name()}
	for _, noise := range []float64{0, 0.0005, 0.002, 0.01} {
		cfg := fedprox(o.base(w), w.BestMu)
		if noise > 0 {
			cfg.Privacy = &privacy.Mechanism{ClipNorm: 0.5, NoiseStd: noise, Seed: o.Seed + 3}
		}
		sec.requests = append(sec.requests, o.request("synthetic", cfg).labelled(fmt.Sprintf("FedProx(mu=%g) noise=%g", w.BestMu, noise)))
	}
	return &Result{
		Title:    "DP clipping+noise composes with FedProx (footnote 1): graceful degradation",
		Sections: []Section{sec},
	}
}

func extNonconvex(o Options) *Result {
	res := Result{Title: "FedAvg vs FedProx with a tanh MLP (non-convex F_k, Theorem 4's regime)"}
	w := o.load("mnist-mlp")
	for _, frac := range []float64{0, 0.9} {
		base := o.base(w)
		base.StragglerFraction = frac
		res.Sections = append(res.Sections, Section{
			Name:     fmt.Sprintf("%s+MLP %.0f%% stragglers", w.name(), frac*100),
			requests: o.requests("mnist-mlp", fedavg(base), fedprox(base, 0), fedprox(base, w.BestMu)),
		})
	}
	return &res
}

func extComm(o Options) *Result {
	w := o.load("synthetic")
	base := o.base(w)
	base.StragglerFraction = 0.9
	return &Result{
		Title: "resource accounting at 90% stragglers: FedAvg wastes straggler epochs",
		Sections: []Section{{
			Name:     w.name() + " 90% stragglers",
			requests: o.requests("synthetic", fedavg(base), fedprox(base, 0), fedprox(base, w.BestMu)),
		}},
		finish: func(res *Result) error {
			sec := &res.Sections[0]
			for _, h := range sec.Runs {
				c := h.Final().Cost
				waste := 0.0
				if c.DeviceEpochs > 0 {
					waste = float64(c.WastedEpochs) / float64(c.DeviceEpochs)
				}
				sec.Notes = append(sec.Notes, fmt.Sprintf(
					"%s: device-epochs=%d wasted=%d (%.0f%%) up=%dKB down=%dKB final-loss=%.4f",
					h.Label, c.DeviceEpochs, c.WastedEpochs, 100*waste,
					c.UplinkBytes/1024, c.DownlinkBytes/1024, h.Final().TrainLoss))
			}
			return nil
		},
	}
}

func extTheory(o Options, res *Result) error {
	res.Title = "Theorem 4 constants measured on data: B rises with heterogeneity, rho falls"
	rng := frand.New(o.Seed)
	for _, key := range ladder {
		w := o.load(key)
		fed := data.Generate(w.Fleet)
		winit := w.Model.InitParams(rng.Split(fed.Name))
		rep, err := theory.Analyze(w.Model, fed, winit, 1 /* mu */, 0.1 /* gamma */, o.ClientsPerRound, rng.Split("probe-"+fed.Name))
		if err != nil {
			return err
		}
		res.Sections = append(res.Sections, Section{
			Name: fed.Name,
			Notes: []string{
				fmt.Sprintf("measured B=%.3f L=%.3f -> rho=%.4f remark5=%v", rep.B, rep.L, rep.Rho, rep.Remark5),
			},
		})
	}
	return nil
}

func extSyshet(o Options) *Result {
	w := o.load("synthetic")
	sizes, mean := trainSizes(w.Fleet)
	// Deadline calibrated so a mid-tier device completes ~1/4 of E epochs
	// on the mean shard: a strongly straggling fleet.
	fleet := syshet.NewFleet(syshet.Config{
		Deadline:  syshet.DeadlineFor(o.LocalEpochs/4+1, mean, 10, 10),
		JitterStd: 0.3,
		BatchSize: 10,
		Seed:      o.Seed + 1,
	}, sizes)

	base := o.base(w)
	base.Capability = fleet
	return &Result{
		Title: "emergent stragglers from device tiers: drop vs aggregate vs prox",
		Sections: []Section{{
			Name: w.name(),
			Notes: []string{
				fmt.Sprintf("emergent straggler rate at E=%d: %.2f", o.LocalEpochs,
					fleet.StragglerRate(10, o.LocalEpochs)),
				fmt.Sprintf("fleet tiers: %v", fleet.TierCounts()),
			},
			requests: o.requests("synthetic", fedavg(base), fedprox(base, 0), fedprox(base, w.BestMu)),
		}},
	}
}

func extSolvers(o Options) *Result {
	w := o.load("synthetic")
	sec := Section{Name: w.name()}
	for _, ls := range []solver.LocalSolver{
		nil, // the default, SGD
		solver.MomentumSolver{Beta: 0.9},
		solver.AdagradSolver{},
		solver.AdamSolver{},
		solver.GDSolver{StepsPerEpoch: 2},
	} {
		cfg := fedprox(o.base(w), w.BestMu)
		cfg.Solver = ls
		switch ls.(type) {
		case solver.AdagradSolver, solver.AdamSolver:
			cfg.LearningRate = w.LR * 3 // adaptive methods renormalize steps
		}
		sec.requests = append(sec.requests, o.request("synthetic", cfg))
	}
	return &Result{
		Title:    "the framework is solver-agnostic: every local solver converges under prox",
		Sections: []Section{sec},
	}
}

func extGamma(o Options) *Result {
	w := o.load("synthetic")
	sec := Section{Name: w.name()}
	for _, e := range []int{1, 5, 20} {
		cfg := fedprox(o.base(w), 1)
		cfg.LocalEpochs = e
		cfg.TrackGamma = true
		sec.requests = append(sec.requests, o.request("synthetic", cfg).labelled(fmt.Sprintf("E=%d", e)))
	}
	return &Result{
		Title:    "achieved gamma-inexactness falls as the local epoch budget grows",
		Sections: []Section{sec},
		Notes:    []string{"Definition 2: more local work means a smaller (more exact) gamma"},
		finish: func(res *Result) error {
			sec := &res.Sections[0]
			for _, h := range sec.Runs {
				sec.Notes = append(sec.Notes, fmt.Sprintf("%s final mean gamma %.4f", h.Label, h.Final().MeanGamma))
			}
			return nil
		},
	}
}
