package experiments

import (
	"fmt"
	"strings"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/femnistsim"
	"fedprox/internal/data/imagesim"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/sent140sim"
	"fedprox/internal/data/shakespearesim"
	"fedprox/internal/tensor"
)

func init() {
	register("table1", "Table 1: statistics of the four real federated datasets (surrogates)", finishOnly(table1))
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
func (o Options) base(w Workload) core.Config {
	cfg := core.Config{
		Rounds:          w.Rounds,
		ClientsPerRound: o.ClientsPerRound,
		LocalEpochs:     o.LocalEpochs,
		LearningRate:    w.LR,
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

// requests asks for each of cfgs over the workload o loads as key.
func (o Options) requests(key string, cfgs ...core.Config) []request {
	out := make([]request, len(cfgs))
	for i, c := range cfgs {
		out[i] = o.request(key, c)
	}
	return out
}

// table1 counts the samples of the four real-data surrogates at paper
// scale from the per-device sizes each fleet draws, building no device.
func table1(o Options, res *Result) error {
	res.Title = "dataset statistics at paper scale (surrogate generators)"
	sec := Section{Name: "Table 1"}
	mnist, femnist := imagesim.NewFleet(mnistsim.Scaled(1)), imagesim.NewFleet(femnistsim.Scaled(1))
	shakespeare, sent140 := shakespearesim.NewFleet(shakespearesim.Default()), sent140sim.NewFleet(sent140sim.Default())
	for _, st := range []data.Stats{
		data.CountStats(mnist.Header().Name, mnist.Samples),
		data.CountStats(femnist.Header().Name, femnist.Samples),
		data.CountStats(shakespeare.Header().Name, shakespeare.Samples),
		data.CountStats(sent140.Header().Name, sent140.Samples),
	} {
		sec.Notes = append(sec.Notes, st.String())
	}
	res.Sections = append(res.Sections, sec)
	res.Notes = append(res.Notes,
		"paper reference: MNIST 1000/69035/69±106, FEMNIST 200/18345/92±159,",
		"Shakespeare 143/517106/3616±6808, Sent140 772/40783/53±32")
	return nil
}

// stragglerGrid declares the Figure 1/7 (and, with epochs=1, Figure 9/10)
// comparison: for each workload and straggler level, FedAvg vs
// FedProx(μ=0) vs FedProx(best μ).
func (o Options) stragglerGrid(epochs int, withBestMu bool) []Section {
	var sections []Section
	for _, key := range o.fiveDatasets() {
		w := o.load(key)
		for _, frac := range []float64{0, 0.5, 0.9} {
			base := o.base(w)
			base.LocalEpochs = epochs
			base.StragglerFraction = frac
			cfgs := []core.Config{fedavg(base), fedprox(base, 0)}
			if withBestMu {
				cfgs = append(cfgs, fedprox(base, w.BestMu))
			}
			sections = append(sections, Section{
				Name:     fmt.Sprintf("%s %.0f%% stragglers", w.name(), frac*100),
				requests: o.requests(key, cfgs...),
			})
		}
	}
	return sections
}

func figure1(o Options) *Result {
	return &Result{
		Title:    "training loss, five datasets x {0,50,90}% stragglers, E=20",
		Sections: o.stragglerGrid(o.LocalEpochs, true),
	}
}

// dissimilarity declares Figures 2 and 8: on each workload, FedProx(μ=0)
// against FedProx(best μ), tracking the gradient variance.
func (o Options) dissimilarity(keys []string) []Section {
	var sections []Section
	for _, key := range keys {
		w := o.load(key)
		base := o.base(w)
		base.TrackDissimilarity = true
		sections = append(sections, Section{Name: w.name(), requests: o.requests(key, fedprox(base, 0), fedprox(base, w.BestMu))})
	}
	return sections
}

func figure2(o Options) *Result {
	return &Result{
		Title:    "heterogeneity ladder: loss (top row) and gradient variance (bottom row)",
		Sections: o.dissimilarity(ladder),
	}
}

// adaptiveMu declares Figures 3 and 11: on each workload, FedProx(μ=0),
// adaptive μ and FedProx(best μ). Adaptive μ starts adversarially: at 1 on
// IID data, where μ = 0 is best, and at 0 elsewhere.
func (o Options) adaptiveMu(keys []string) []Section {
	var sections []Section
	for _, key := range keys {
		w := o.load(key)
		base := o.base(w)
		mu0 := 0.0
		if key == "synthetic-iid" {
			mu0 = 1
		}
		adaptive := fedprox(base, mu0)
		adaptive.AdaptiveMu = true
		sections = append(sections, Section{
			Name:     fmt.Sprintf("%s (mu0=%g)", w.name(), mu0),
			requests: o.requests(key, fedprox(base, 0), adaptive, fedprox(base, w.BestMu)),
		})
	}
	return sections
}

func figure3(o Options) *Result {
	return &Result{
		Title:    "adaptive mu (increase 0.1 on loss rise, decrease 0.1 after 5 falls)",
		Sections: o.adaptiveMu([]string{"synthetic-iid", "synthetic"}),
	}
}

func figure4(o Options) *Result {
	res := Result{Title: "FedDane vs FedProx on the synthetic suite (top: mu sweep; bottom: c sweep)"}
	for _, key := range ladder {
		w := o.load(key)
		base := o.base(w)
		dane := func(mu float64, c int) request {
			r := o.request(key, fedprox(base, mu))
			r.dane = c
			return r
		}
		// The mu sweep names c = K, so the c sweep's c = K request is the
		// same run as its FedDane(mu=0).
		mu := append(o.requests(key, fedprox(base, 0), fedprox(base, 1)),
			dane(0, base.ClientsPerRound), dane(1, base.ClientsPerRound))
		res.Sections = append(res.Sections,
			Section{Name: w.name() + " mu sweep", requests: mu},
			Section{Name: w.name() + " c sweep", requests: []request{dane(0, 10), dane(0, 20), dane(0, 30)}})
	}
	return &res
}

func figure5(o Options) *Result {
	res := Result{Title: "IID data: FedAvg is robust to stragglers; partial work changes little"}
	w := o.load("synthetic-iid")
	for _, frac := range []float64{0, 0.1, 0.5, 0.9} {
		base := o.base(w)
		base.StragglerFraction = frac
		res.Sections = append(res.Sections, Section{
			Name:     fmt.Sprintf("Synthetic-IID %.0f%% stragglers", frac*100),
			requests: o.requests("synthetic-iid", fedavg(base), fedprox(base, 0)),
		})
	}
	return &res
}

func figure6(o Options) *Result {
	p := figure2(o)
	p.Title = "Figure 2 ladder with testing accuracy (all three metric rows)"
	return p
}

func figure7(o Options) *Result {
	p := figure1(o)
	p.Title = "testing accuracy for the Figure 1 grid + improvement accounting"
	p.finish = settledImprovement
	return p
}

// settledImprovement notes the paper's 22% claim: the mean absolute
// test-accuracy improvement of FedProx(best mu) over FedAvg at 90%
// stragglers, with accuracies taken at convergence/divergence/budget
// exhaustion (Appendix C.3.2).
func settledImprovement(res *Result) error {
	const tol, rise, win = 1e-4, 1.0, 10
	sum, n := 0.0, 0
	for i := range res.Sections {
		sec := &res.Sections[i]
		if len(sec.Runs) < 3 || !is90(sec.Name) {
			continue
		}
		avg := sec.Runs[0].SettledAccuracy(tol, rise, min(win, len(sec.Runs[0].Points)-1))
		prox := sec.Runs[2].SettledAccuracy(tol, rise, min(win, len(sec.Runs[2].Points)-1))
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
	return nil
}

func is90(name string) bool { return strings.HasSuffix(name, "90% stragglers") }

func figure8(o Options) *Result {
	return &Result{
		Title:    "gradient-variance dissimilarity on five datasets, no stragglers",
		Sections: o.dissimilarity(o.fiveDatasets()),
	}
}

func figure9(o Options) *Result {
	return &Result{
		Title:    "E=1 training loss under stragglers: partial work still beats dropping",
		Sections: o.stragglerGrid(1, false),
	}
}

func figure10(o Options) *Result {
	p := figure9(o)
	p.Title = "E=1 testing accuracy under stragglers"
	return p
}

func figure11(o Options) *Result {
	return &Result{
		Title:    "adaptive mu on all four synthetic datasets (adversarial mu0)",
		Sections: o.adaptiveMu(ladder),
	}
}

func figure12(o Options) *Result {
	res := Result{Title: "sampling schemes: uniform+weighted-average vs weighted+simple-average"}
	for _, key := range ladder {
		w := o.load(key)
		sec := Section{Name: w.name()}
		for _, scheme := range []core.SamplingScheme{core.UniformWeightedAvg, core.WeightedSimpleAvg} {
			for _, mu := range []float64{0, 1} {
				c := fedprox(o.base(w), mu)
				c.Sampling = scheme
				c.TrackDissimilarity = true
				sec.requests = append(sec.requests, o.request(key, c).labelled(fmt.Sprintf("mu=%g %s", mu, scheme)))
			}
		}
		res.Sections = append(res.Sections, sec)
	}
	return &res
}
