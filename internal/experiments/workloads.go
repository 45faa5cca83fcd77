package experiments

import (
	"fmt"

	"fedprox/internal/data"
	"fedprox/internal/data/femnistsim"
	"fedprox/internal/data/imagesim"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/sent140sim"
	"fedprox/internal/data/shakespearesim"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/model/lstm"
)

// workload bundles a federated dataset with its model and the paper's
// tuned hyperparameters for it.
type workload struct {
	fed *data.Federated
	mdl model.Model
	// lr is the learning rate the paper tuned on FedAvg for this dataset
	// (Appendix C.2): synthetic 0.01, MNIST 0.03, FEMNIST 0.003,
	// Shakespeare 0.8, Sent140 0.3.
	lr float64
	// bestMu is the best μ from the paper's candidate set for this
	// dataset (Section 5.3.2): 1, 1, 1, 0.001, 0.01.
	bestMu float64
	// rounds is the communication-round budget.
	rounds int
}

// Workload is a standard workload before any device is built: what the
// distributed binaries (cmd/fedserver, cmd/fedworker) agree on, so that
// each process materializes only the devices it hosts.
type Workload struct {
	// Fleet is the dataset, lazily: a device's shard is built when asked
	// for, from the workload's key and Options alone.
	Fleet data.Source
	// Model is sized from Fleet's header.
	Model model.Model
	// LR is the paper's tuned learning rate for this dataset.
	LR float64
	// BestMu is the paper's best proximal coefficient for this dataset.
	BestMu float64
	// Rounds is the round budget under the options used.
	Rounds int
}

// lazy pairs src with its model, sized from src's header: logistic
// regression on a dense task, the LSTM of Options on a sequence task.
func (o Options) lazy(src data.Source, lr, bestMu float64, rounds int) Workload {
	hdr := src.Header()
	var m model.Model
	if hdr.FeatureDim > 0 {
		m = linear.ForDataset(&hdr)
	} else {
		m = lstm.ForDataset(&hdr, o.Embed, o.Hidden, o.Layers)
	}
	return Workload{Fleet: src, Model: m, LR: lr, BestMu: bestMu, Rounds: rounds}
}

// over is w with every device built: fed is the dataset w.Fleet
// describes. The experiments run over whole datasets.
func (w Workload) over(fed *data.Federated) workload {
	return workload{fed: fed, mdl: w.Model, lr: w.LR, bestMu: w.BestMu, rounds: w.Rounds}
}

// syntheticConfig is Synthetic(α,β), or Synthetic-IID, at o's scale.
func (o Options) syntheticConfig(alpha, beta float64, iid bool) synthetic.Config {
	cfg := synthetic.Default(alpha, beta)
	if iid {
		cfg = synthetic.DefaultIID()
	}
	return cfg.Scaled(o.Scale)
}

func (o Options) synthetic(c synthetic.Config) Workload {
	return o.lazy(synthetic.NewFleet(c), 0.01, 1, o.Rounds)
}

func (o Options) syntheticWorkload(alpha, beta float64, iid bool) workload {
	c := o.syntheticConfig(alpha, beta, iid)
	return o.synthetic(c).over(synthetic.Generate(c))
}

// NamedWorkload returns one of the standard workloads by key: "synthetic"
// (Synthetic(1,1)), "synthetic-iid", "mnist", "femnist", "shakespeare",
// or "sent140". It makes the fleet's shared draws and builds no shard.
func (o Options) NamedWorkload(key string) (Workload, error) {
	switch key {
	case "synthetic":
		return o.synthetic(o.syntheticConfig(1, 1, false)), nil
	case "synthetic-iid":
		return o.synthetic(o.syntheticConfig(0, 0, true)), nil
	case "mnist":
		return o.lazy(imagesim.NewFleet(mnistsim.Scaled(o.Scale)), 0.03, 1, o.Rounds), nil
	case "femnist":
		return o.lazy(imagesim.NewFleet(femnistsim.Scaled(o.Scale)), 0.003, 1, o.Rounds), nil
	case "shakespeare":
		// Sequence volume is the runtime driver; scale harder than the
		// convex datasets (the paper itself runs Shakespeare for only ~20
		// rounds).
		cfg := shakespearesim.Default().Scaled(o.Scale*0.05, o.MaxSeqLen)
		return o.lazy(shakespearesim.NewFleet(cfg), 0.8, 0.001, o.SeqRounds), nil
	case "sent140":
		cfg := sent140sim.Default().Scaled(o.Scale, o.MaxSeqLen)
		return o.lazy(sent140sim.NewFleet(cfg), 0.3, 0.01, o.SeqRounds), nil
	}
	return Workload{}, fmt.Errorf("experiments: unknown workload %q", key)
}

// workload builds every device of the standard workload key.
func (o Options) workload(key string) workload {
	w, err := o.NamedWorkload(key)
	if err != nil {
		panic(err)
	}
	return w.over(data.Generate(w.Fleet))
}

// figure1Workloads returns the five federated datasets of Figures 1, 7, 8,
// 9, and 10 in paper order, filtered by Options.Datasets.
func (o Options) figure1Workloads() []workload {
	var out []workload
	for _, key := range []string{"synthetic", "mnist", "femnist", "shakespeare", "sent140"} {
		if o.wantDataset(key) {
			out = append(out, o.workload(key))
		}
	}
	return out
}

// syntheticLadder returns the four synthetic datasets of Figure 2 in
// increasing heterogeneity order: IID, (0,0), (0.5,0.5), (1,1).
func (o Options) syntheticLadder() []workload {
	return []workload{
		o.syntheticWorkload(0, 0, true),
		o.syntheticWorkload(0, 0, false),
		o.syntheticWorkload(0.5, 0.5, false),
		o.syntheticWorkload(1, 1, false),
	}
}
