package experiments

import (
	"fmt"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/femnistsim"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/sent140sim"
	"fedprox/internal/data/shakespearesim"
	"fedprox/internal/feddane"
	"fedprox/internal/tensor"
)

func init() {
	register("table1", "Table 1: statistics of the four real federated datasets (surrogates)", table1)
	register("figure1", "Figure 1: training loss under 0/50/90% stragglers, five datasets", figure1)
	register("figure2", "Figure 2: statistical heterogeneity ladder — loss and dissimilarity", figure2)
	register("figure3", "Figure 3: adaptive mu heuristic on Synthetic-IID and Synthetic(1,1)", figure3)
	register("figure4", "Figure 4 (App. B): FedDane vs FedProx on the synthetic suite", figure4)
	register("figure5", "Figure 5 (App. C.3.1): straggler robustness on IID data", figure5)
	register("figure6", "Figure 6: full loss/accuracy/dissimilarity for the Figure 2 ladder", figure6)
	register("figure7", "Figure 7: testing accuracy for Figure 1 + 90%-straggler improvement", figure7)
	register("figure8", "Figure 8: dissimilarity metric on the five datasets, no stragglers", figure8)
	register("figure9", "Figure 9 (App.): E=1 training loss under stragglers", figure9)
	register("figure10", "Figure 10 (App.): E=1 testing accuracy under stragglers", figure10)
	register("figure11", "Figure 11 (App.): adaptive mu on all four synthetic datasets", figure11)
	register("figure12", "Figure 12 (App. C.3.4): device sampling scheme comparison", figure12)
}

// base returns the shared configuration for one workload under o.
func (o Options) base(w workload) core.Config {
	cfg := core.Config{
		Rounds:          w.rounds,
		ClientsPerRound: o.ClientsPerRound,
		LocalEpochs:     o.LocalEpochs,
		LearningRate:    w.lr,
		BatchSize:       10,
		EvalEvery:       o.EvalEvery,
		Seed:            o.Seed,
		Trace:           o.Trace,
	}
	if o.Codec != "" {
		cfg.Codec = comm.Spec{Name: o.Codec, Bits: o.CodecBits, TopK: o.CodecTopK}
		if o.DownlinkCodec != "" {
			cfg.DownlinkCodec = comm.Spec{Name: o.DownlinkCodec, Bits: o.CodecBits, TopK: o.CodecTopK}
		}
	}
	if p, err := tensor.ParsePrecision(o.Precision); err == nil {
		cfg.Precision = p
	} else {
		// Keep the bad spelling so Config.Validate reports it.
		cfg.Precision = tensor.Precision(o.Precision)
	}
	return cfg
}

func fedavg(c core.Config) core.Config {
	c.Mu = 0
	c.Straggler = core.DropStragglers
	return c
}

func fedprox(c core.Config, mu float64) core.Config {
	c.Mu = mu
	c.Straggler = core.AggregatePartial
	return c
}

// runAll executes the given configurations on one workload.
func runAll(w workload, cfgs ...core.Config) ([]*core.History, error) {
	out := make([]*core.History, 0, len(cfgs))
	for _, c := range cfgs {
		h, err := core.Run(w.mdl, w.fed, c)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.fed.Name, err)
		}
		out = append(out, h)
	}
	return out, nil
}

func table1(o Options) (*Result, error) {
	res := &Result{
		ID:    "table1",
		Title: "dataset statistics at paper scale (surrogate generators)",
		Notes: []string{
			"paper reference: MNIST 1000/69035/69±106, FEMNIST 200/18345/92±159,",
			"Shakespeare 143/517106/3616±6808, Sent140 772/40783/53±32",
		},
	}
	stats := []data.Stats{
		mnistsim.GenerateScaled(1).ComputeStats(),
		femnistsim.GenerateScaled(1).ComputeStats(),
		shakespearesim.Generate(shakespearesim.Default()).ComputeStats(),
		sent140sim.Generate(sent140sim.Default()).ComputeStats(),
	}
	sec := Section{Name: "Table 1"}
	for _, st := range stats {
		sec.Notes = append(sec.Notes, st.String())
	}
	res.Sections = append(res.Sections, sec)
	return res, nil
}

// stragglerGrid runs the Figure 1/7 (and, with epochs=1, Figure 9/10)
// comparison: for each workload and straggler level, FedAvg vs
// FedProx(μ=0) vs FedProx(best μ).
func stragglerGrid(o Options, epochs int, withBestMu bool) ([]Section, error) {
	fracs := []float64{0, 0.5, 0.9}
	var sections []Section
	for _, w := range o.figure1Workloads() {
		for _, frac := range fracs {
			base := o.base(w)
			base.LocalEpochs = epochs
			base.StragglerFraction = frac
			cfgs := []core.Config{fedavg(base), fedprox(base, 0)}
			if withBestMu {
				cfgs = append(cfgs, fedprox(base, w.bestMu))
			}
			runs, err := runAll(w, cfgs...)
			if err != nil {
				return nil, err
			}
			sections = append(sections, Section{
				Name: fmt.Sprintf("%s %.0f%% stragglers", w.fed.Name, frac*100),
				Runs: runs,
			})
		}
	}
	return sections, nil
}

func figure1(o Options) (*Result, error) {
	sections, err := stragglerGrid(o, o.LocalEpochs, true)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:       "figure1",
		Title:    "training loss, five datasets x {0,50,90}% stragglers, E=20",
		Sections: sections,
		Notes: []string{
			"expected shape: FedProx(mu=0) beats FedAvg under stragglers;",
			"FedProx(best mu) is the most stable and converges everywhere",
		},
	}, nil
}

func figure2(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure2",
		Title: "heterogeneity ladder: loss (top row) and gradient variance (bottom row)",
		Notes: []string{"expected shape: convergence degrades left to right for mu=0; mu>0 combats it"},
	}
	for _, w := range o.syntheticLadder() {
		base := o.base(w)
		base.TrackDissimilarity = true
		runs, err := runAll(w, fedprox(base, 0), fedprox(base, 1))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{Name: w.fed.Name, Runs: runs})
	}
	return res, nil
}

func figure3(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure3",
		Title: "adaptive mu (increase 0.1 on loss rise, decrease 0.1 after 5 falls)",
	}
	cases := []struct {
		w   workload
		mu0 float64
	}{
		{o.syntheticWorkload(0, 0, true), 1}, // adversarial start for IID
		{o.syntheticWorkload(1, 1, false), 0},
	}
	for _, tc := range cases {
		base := o.base(tc.w)
		adaptive := fedprox(base, tc.mu0)
		adaptive.AdaptiveMu = true
		runs, err := runAll(tc.w, fedprox(base, 0), adaptive, fedprox(base, tc.w.bestMu))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{
			Name: fmt.Sprintf("%s (mu0=%g)", tc.w.fed.Name, tc.mu0),
			Runs: runs,
		})
	}
	return res, nil
}

func figure4(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure4",
		Title: "FedDane vs FedProx on the synthetic suite (top: mu sweep; bottom: c sweep)",
		Notes: []string{"expected shape: FedDane matches on IID, degrades on non-IID; larger c helps only partially"},
	}
	for _, w := range o.syntheticLadder() {
		base := o.base(w)
		runs, err := runAll(w, fedprox(base, 0), fedprox(base, 1))
		if err != nil {
			return nil, err
		}
		var dane0 *core.History // FedDane(mu=0) at the default c, ClientsPerRound
		for _, mu := range []float64{0, 1} {
			dh, err := feddane.Run(w.mdl, w.fed, feddane.Config{Config: fedprox(base, mu)})
			if err != nil {
				return nil, err
			}
			if mu == 0 {
				dane0 = dh
			}
			runs = append(runs, dh)
		}
		res.Sections = append(res.Sections, Section{Name: w.fed.Name + " mu sweep", Runs: runs})

		var cRuns []*core.History
		for _, c := range []int{10, 20, 30} {
			if c == base.ClientsPerRound {
				// The same config as the mu sweep's FedDane(mu=0): the same run.
				cRuns = append(cRuns, dane0)
				continue
			}
			dh, err := feddane.Run(w.mdl, w.fed, feddane.Config{Config: fedprox(base, 0), GradClients: c})
			if err != nil {
				return nil, err
			}
			cRuns = append(cRuns, dh)
		}
		res.Sections = append(res.Sections, Section{Name: w.fed.Name + " c sweep", Runs: cRuns})
	}
	return res, nil
}

func figure5(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure5",
		Title: "IID data: FedAvg is robust to stragglers; partial work changes little",
	}
	w := o.syntheticWorkload(0, 0, true)
	for _, frac := range []float64{0, 0.1, 0.5, 0.9} {
		base := o.base(w)
		base.StragglerFraction = frac
		runs, err := runAll(w, fedavg(base), fedprox(base, 0))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{
			Name: fmt.Sprintf("Synthetic-IID %.0f%% stragglers", frac*100),
			Runs: runs,
		})
	}
	return res, nil
}

func figure6(o Options) (*Result, error) {
	res, err := figure2(o)
	if err != nil {
		return nil, err
	}
	res.ID = "figure6"
	res.Title = "Figure 2 ladder with testing accuracy (all three metric rows)"
	return res, nil
}

func figure7(o Options) (*Result, error) {
	sections, err := stragglerGrid(o, o.LocalEpochs, true)
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:       "figure7",
		Title:    "testing accuracy for the Figure 1 grid + improvement accounting",
		Sections: sections,
	}
	// The paper's 22% claim: mean absolute test-accuracy improvement of
	// FedProx(best mu) over FedAvg at 90% stragglers, with accuracies
	// taken at convergence/divergence/budget-exhaustion (Appendix C.3.2).
	const tol, rise, win = 1e-4, 1.0, 10
	sum, n := 0.0, 0
	for i := range res.Sections {
		sec := &res.Sections[i]
		if len(sec.Runs) < 3 || !is90(sec.Name) {
			continue
		}
		avg := sec.Runs[0].SettledAccuracy(tol, rise, minInt(win, len(sec.Runs[0].Points)-1))
		prox := sec.Runs[2].SettledAccuracy(tol, rise, minInt(win, len(sec.Runs[2].Points)-1))
		diff := prox - avg
		sec.Notes = append(sec.Notes,
			fmt.Sprintf("settled accuracy: FedAvg %.4f, FedProx(best mu) %.4f, improvement %+.4f", avg, prox, diff))
		sum += diff
		n++
	}
	if n > 0 {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"mean absolute accuracy improvement at 90%% stragglers: %+.1f points (paper reports +22)", 100*sum/float64(n)))
	}
	return res, nil
}

func is90(name string) bool {
	return len(name) >= 14 && name[len(name)-14:] == "90% stragglers"
}

func figure8(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure8",
		Title: "gradient-variance dissimilarity on five datasets, no stragglers",
	}
	for _, w := range o.figure1Workloads() {
		base := o.base(w)
		base.TrackDissimilarity = true
		runs, err := runAll(w, fedprox(base, 0), fedprox(base, w.bestMu))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{Name: w.fed.Name, Runs: runs})
	}
	return res, nil
}

func figure9(o Options) (*Result, error) {
	sections, err := stragglerGrid(o, 1, false)
	if err != nil {
		return nil, err
	}
	return &Result{
		ID:       "figure9",
		Title:    "E=1 training loss under stragglers: partial work still beats dropping",
		Sections: sections,
	}, nil
}

func figure10(o Options) (*Result, error) {
	res, err := figure9(o)
	if err != nil {
		return nil, err
	}
	res.ID = "figure10"
	res.Title = "E=1 testing accuracy under stragglers"
	return res, nil
}

func figure11(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure11",
		Title: "adaptive mu on all four synthetic datasets (adversarial mu0)",
	}
	for _, w := range o.syntheticLadder() {
		mu0 := 0.0
		if w.fed.Name == "Synthetic-IID" {
			mu0 = 1
		}
		base := o.base(w)
		adaptive := fedprox(base, mu0)
		adaptive.AdaptiveMu = true
		runs, err := runAll(w, fedprox(base, 0), adaptive, fedprox(base, 1))
		if err != nil {
			return nil, err
		}
		res.Sections = append(res.Sections, Section{
			Name: fmt.Sprintf("%s (mu0=%g)", w.fed.Name, mu0),
			Runs: runs,
		})
	}
	return res, nil
}

func figure12(o Options) (*Result, error) {
	res := &Result{
		ID:    "figure12",
		Title: "sampling schemes: uniform+weighted-average vs weighted+simple-average",
	}
	for _, w := range o.syntheticLadder() {
		var runs []*core.History
		for _, scheme := range []core.SamplingScheme{core.UniformWeightedAvg, core.WeightedSimpleAvg} {
			for _, mu := range []float64{0, 1} {
				c := fedprox(o.base(w), mu)
				c.Sampling = scheme
				c.TrackDissimilarity = true
				h, err := core.Run(w.mdl, w.fed, c)
				if err != nil {
					return nil, err
				}
				h.Label = fmt.Sprintf("mu=%g %s", mu, scheme)
				runs = append(runs, h)
			}
		}
		res.Sections = append(res.Sections, Section{Name: w.fed.Name, Runs: runs})
	}
	return res, nil
}
