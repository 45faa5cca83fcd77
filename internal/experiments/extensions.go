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
	"fedprox/internal/model/mlp"
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
	register("ext-theory", "theory validation: measured B/L/rho across the synthetic ladder", extTheory)
	register("ext-syshet", "capability-driven systems heterogeneity (global clock + device tiers)", extSyshet)
	register("ext-solvers", "solver-agnosticism: FedProx with SGD, momentum, Adagrad, Adam, GD", extSolvers)
	register("ext-gamma", "achieved gamma-inexactness vs local epoch budget", extGamma)
	register("ext-comm", "communication and wasted-computation accounting: drop vs aggregate", extComm)
	register("ext-nonconvex", "straggler results survive non-convexity: MLP on the MNIST surrogate", extNonconvex)
	register("ext-privacy", "update-level DP composed with FedProx: accuracy vs noise", extPrivacy)
	register("ext-bias", "dropping stragglers biases the model against the stragglers' classes", extBias)
}

// extBias constructs the bias scenario of Section 2: devices holding
// classes 0 and 1 carry much larger shards, so under a capability fleet
// they take longer per epoch and straggle systematically. Dropping them
// (FedAvg) starves classes 0-1 of updates; aggregating partial work
// (FedProx) keeps them in the model. Per-class accuracy makes the bias
// visible.
func extBias(o Options) (*Result, error) {
	fed := biasedDataset(o)
	mdl := linear.ForDataset(fed)
	w := workload{fed: fed, mdl: mdl, lr: 0.01, bestMu: 1, rounds: o.Rounds}

	base := o.base(w)
	// Uniform-speed fleet with a deadline calibrated so a device with a
	// SMALL shard just completes E epochs; the inflated big-shard devices
	// (the class 0-1 holders) therefore straggle every round — hardware
	// cannot rescue them, isolating the data-size → straggler → bias
	// chain.
	base.Capability = syshet.NewFleet(syshet.Config{
		Deadline:  syshet.DeadlineFor(o.LocalEpochs, smallShard(o), 10, 10),
		Tiers:     []syshet.Tier{{Name: "uniform", Share: 1, Speed: 10}},
		JitterStd: 0.1,
		BatchSize: 10,
		Seed:      o.Seed + 7,
	}, fed.TrainSizes())

	res := &Result{
		ID:    "ext-bias",
		Title: "systematic stragglers hold classes 0-1: per-class accuracy under drop vs aggregate",
	}
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
		h, err := core.Run(w.mdl, w.fed, cfg)
		if err != nil {
			return nil, err
		}
		h.Label = policy.String()
		sec.Runs = append(sec.Runs, h)
		acc, _ := metrics.PerClassAccuracy(w.mdl, w.fed, h.FinalParams)
		mean01 := (acc[0] + acc[1]) / 2
		rest := 0.0
		for c := 2; c < len(acc); c++ {
			rest += acc[c]
		}
		rest /= float64(len(acc) - 2)
		sec.Notes = append(sec.Notes, fmt.Sprintf(
			"%s: straggler classes 0-1 accuracy %.3f vs other classes %.3f (per-class %s...)",
			policy, mean01, rest, fmtClasses(acc, 4)))
	}
	res.Sections = append(res.Sections, sec)
	res.Notes = append(res.Notes,
		"expected shape: under drop, classes 0-1 lag the others; aggregation closes the gap")
	return res, nil
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

func smallShard(o Options) int {
	// The calibration shard for the deadline: a non-inflated device.
	return 25
}

func fmtClasses(acc []float64, n int) string {
	out := "["
	for c := 0; c < n && c < len(acc); c++ {
		if c > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", acc[c])
	}
	return out + "]"
}

func extPrivacy(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-privacy",
		Title: "DP clipping+noise composes with FedProx (footnote 1): graceful degradation",
	}
	w := o.syntheticWorkload(1, 1, false)
	sec := Section{Name: w.fed.Name}
	for _, noise := range []float64{0, 0.0005, 0.002, 0.01} {
		cfg := fedprox(o.base(w), w.bestMu)
		if noise > 0 {
			cfg.Privacy = &privacy.Mechanism{ClipNorm: 0.5, NoiseStd: noise, Seed: o.Seed + 3}
		}
		h, err := core.Run(w.mdl, w.fed, cfg)
		if err != nil {
			return nil, err
		}
		h.Label = fmt.Sprintf("FedProx(mu=%g) noise=%g", w.bestMu, noise)
		sec.Runs = append(sec.Runs, h)
	}
	res.Sections = append(res.Sections, sec)
	res.Notes = append(res.Notes,
		"expected shape: accuracy degrades smoothly with noise; small noise is near-free")
	return res, nil
}

func extNonconvex(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-nonconvex",
		Title: "FedAvg vs FedProx with a tanh MLP (non-convex F_k, Theorem 4's regime)",
	}
	w := o.workload("mnist")
	w.mdl = mlp.ForDataset(w.fed, 32)
	w.lr = 0.05 // MLP tolerates a slightly larger step than the paper's mclr rate
	for _, frac := range []float64{0, 0.9} {
		base := o.base(w)
		base.StragglerFraction = frac
		runs, err := runAll(w, fedavg(base), fedprox(base, 0), fedprox(base, w.bestMu))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{
			Name: fmt.Sprintf("%s+MLP %.0f%% stragglers", w.fed.Name, frac*100),
			Runs: runs,
		})
	}
	res.Notes = append(res.Notes,
		"expected shape: same ordering as Figure 1 — the analysis covers non-convex F_k")
	return res, nil
}

func extComm(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-comm",
		Title: "resource accounting at 90% stragglers: FedAvg wastes straggler epochs",
	}
	w := o.syntheticWorkload(1, 1, false)
	base := o.base(w)
	base.StragglerFraction = 0.9
	runs, err := runAll(w, fedavg(base), fedprox(base, 0), fedprox(base, w.bestMu))
	if err != nil {
		return nil, err
	}
	sec := Section{Name: w.fed.Name + " 90% stragglers", Runs: runs}
	for _, h := range runs {
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
	res.Sections = append(res.Sections, sec)
	res.Notes = append(res.Notes,
		"expected shape: FedAvg discards most straggler work; FedProx converts the same",
		"device computation (and slightly more uplink) into convergence progress")
	return res, nil
}

func extTheory(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-theory",
		Title: "Theorem 4 constants measured on data: B rises with heterogeneity, rho falls",
	}
	rng := frand.New(o.Seed)
	for _, w := range o.syntheticLadder() {
		winit := w.mdl.InitParams(rng.Split(w.fed.Name))
		rep, err := theory.Analyze(w.mdl, w.fed, winit, 1 /* mu */, 0.1 /* gamma */, o.ClientsPerRound, rng.Split("probe-"+w.fed.Name))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{
			Name: w.fed.Name,
			Notes: []string{
				fmt.Sprintf("measured B=%.3f L=%.3f -> rho=%.4f remark5=%v", rep.B, rep.L, rep.Rho, rep.Remark5),
			},
		})
	}
	res.Notes = append(res.Notes,
		"expected shape: B grows along the ladder; rho shrinks (and can go negative),",
		"matching Section 5.3.3's claim that dissimilarity predicts convergence quality")
	return res, nil
}

func extSyshet(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-syshet",
		Title: "emergent stragglers from device tiers: drop vs aggregate vs prox",
	}
	w := o.syntheticWorkload(1, 1, false)
	// Deadline calibrated so a mid-tier device completes ~1/4 of E epochs
	// on the mean shard: a strongly straggling fleet.
	mean := 0
	for _, n := range w.fed.TrainSizes() {
		mean += n
	}
	mean /= w.fed.NumDevices()
	fleet := syshet.NewFleet(syshet.Config{
		Deadline:  syshet.DeadlineFor(o.LocalEpochs/4+1, mean, 10, 10),
		JitterStd: 0.3,
		BatchSize: 10,
		Seed:      o.Seed + 1,
	}, w.fed.TrainSizes())

	base := o.base(w)
	base.Capability = fleet
	runs, err := runAll(w, fedavg(base), fedprox(base, 0), fedprox(base, w.bestMu))
	if err != nil {
		return nil, err
	}
	res.Sections = append(res.Sections, Section{
		Name: w.fed.Name,
		Runs: runs,
		Notes: []string{
			fmt.Sprintf("emergent straggler rate at E=%d: %.2f", o.LocalEpochs,
				fleet.StragglerRate(10, o.LocalEpochs)),
			fmt.Sprintf("fleet tiers: %v", fleet.TierCounts()),
		},
	})
	return res, nil
}

func extSolvers(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-solvers",
		Title: "the framework is solver-agnostic: every local solver converges under prox",
	}
	w := o.syntheticWorkload(1, 1, false)
	solvers := []solver.LocalSolver{
		solver.SGDSolver{},
		solver.MomentumSolver{Beta: 0.9},
		solver.AdagradSolver{},
		solver.AdamSolver{},
		solver.GDSolver{StepsPerEpoch: 2},
	}
	var runs []*core.History
	for _, ls := range solvers {
		cfg := fedprox(o.base(w), w.bestMu)
		cfg.Solver = ls
		if ls.Name() == "adagrad" || ls.Name() == "adam" {
			cfg.LearningRate = w.lr * 3 // adaptive methods renormalize steps
		}
		h, err := core.Run(w.mdl, w.fed, cfg)
		if err != nil {
			return nil, err
		}
		runs = append(runs, h)
	}
	res.Sections = append(res.Sections, Section{Name: w.fed.Name, Runs: runs})
	return res, nil
}

func extGamma(o Options) (*Result, error) {
	res := &Result{
		ID:    "ext-gamma",
		Title: "achieved gamma-inexactness falls as the local epoch budget grows",
	}
	w := o.syntheticWorkload(1, 1, false)
	sec := Section{Name: w.fed.Name}
	for _, e := range []int{1, 5, 20} {
		cfg := fedprox(o.base(w), 1)
		cfg.LocalEpochs = e
		cfg.TrackGamma = true
		h, err := core.Run(w.mdl, w.fed, cfg)
		if err != nil {
			return nil, err
		}
		h.Label = fmt.Sprintf("E=%d", e)
		sec.Runs = append(sec.Runs, h)
		sec.Notes = append(sec.Notes,
			fmt.Sprintf("E=%d final mean gamma %.4f", e, h.Final().MeanGamma))
	}
	res.Sections = append(res.Sections, sec)
	res.Notes = append(res.Notes, "Definition 2: more local work means a smaller (more exact) gamma")
	return res, nil
}
