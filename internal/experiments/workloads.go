package experiments

import (
	"fmt"
	"slices"

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
	"fedprox/internal/model/mlp"
)

// Workload is a standard workload before any device is built: what the
// distributed binaries (cmd/fedserver, cmd/fedworker) agree on, so that
// each process materializes only the devices it hosts.
type Workload struct {
	// Fleet is the dataset, lazily: a device's shard is built when asked
	// for, from the workload's key and Options alone.
	Fleet data.Source
	// Model is sized from Fleet's header.
	Model model.Model
	// LR is the paper's tuned learning rate for this dataset (Appendix
	// C.2): synthetic 0.01, MNIST 0.03, FEMNIST 0.003, Shakespeare 0.8,
	// Sent140 0.3.
	LR float64
	// BestMu is the paper's best proximal coefficient for this dataset
	// (Section 5.3.2): 1, 1, 1, 0.001, 0.01.
	BestMu float64
	// Rounds is the round budget under the options used.
	Rounds int
}

// name is the dataset's name, e.g. "Synthetic(1,1)".
func (w Workload) name() string { return w.Fleet.Header().Name }

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

// synthetic is Synthetic(α,β), or Synthetic-IID, at o's scale.
func (o Options) synthetic(alpha, beta float64, iid bool) Workload {
	cfg := synthetic.Default(alpha, beta)
	if iid {
		cfg = synthetic.DefaultIID()
	}
	return o.lazy(synthetic.NewFleet(cfg.Scaled(o.Scale)), 0.01, 1, o.Rounds)
}

// NamedWorkload returns one of the standard workloads by key: "synthetic"
// (Synthetic(1,1)), "synthetic-iid", "mnist", "femnist", "shakespeare",
// or "sent140". It makes the fleet's shared draws and builds no shard.
func (o Options) NamedWorkload(key string) (Workload, error) {
	switch key {
	case "synthetic":
		return o.synthetic(1, 1, false), nil
	case "synthetic-iid":
		return o.synthetic(0, 0, true), nil
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

// load returns the workload the experiments name key: a NamedWorkload
// key, one of the two middle rungs of the synthetic ladder,
// "synthetic(0,0)" and "synthetic(0.5,0.5)", or "mnist-mlp", MNIST under
// ext-nonconvex's tanh MLP.
func (o Options) load(key string) Workload {
	switch key {
	case "synthetic(0,0)":
		return o.synthetic(0, 0, false)
	case "synthetic(0.5,0.5)":
		return o.synthetic(0.5, 0.5, false)
	case "mnist-mlp":
		w := o.load("mnist")
		hdr := w.Fleet.Header()
		w.Model = mlp.ForDataset(&hdr, 32)
		w.LR = 0.05 // MLP tolerates a slightly larger step than the paper's mclr rate
		return w
	}
	w, err := o.NamedWorkload(key)
	if err != nil {
		panic(err)
	}
	return w
}

// ladder is the four synthetic datasets of Figure 2 in increasing
// heterogeneity order: IID, (0,0), (0.5,0.5), (1,1).
var ladder = []string{"synthetic-iid", "synthetic(0,0)", "synthetic(0.5,0.5)", "synthetic"}

// fiveDatasets returns the federated datasets of Figures 1, 7, 8, 9 and
// 10 in paper order, filtered by Options.Datasets.
func (o Options) fiveDatasets() []string {
	return slices.DeleteFunc([]string{"synthetic", "mnist", "femnist", "shakespeare", "sent140"},
		func(key string) bool { return !o.wantDataset(key) })
}

// trainSizes returns every device's training-set size and their integer
// mean, building no device.
func trainSizes(fl data.Fleet) (sizes []int, mean int) {
	sizes = make([]int, fl.NumDevices())
	for k := range sizes {
		sizes[k] = fl.TrainSize(k)
		mean += sizes[k]
	}
	return sizes, mean / len(sizes)
}
