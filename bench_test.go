// Package fedprox_bench regenerates every table and figure of the paper's
// evaluation as a testing.B benchmark, plus ablation benches
// (BenchmarkAblation*) for this implementation's own design choices.
//
// Each benchmark executes its experiment at the miniature preset (the
// comparisons' qualitative shape is preserved; fedbench without -fast runs
// the paper-scale configurations) and reports the headline scalar of the
// figure as a custom metric so regressions in *outcome*, not just
// runtime, are visible in benchstat output.
//
//	go test -bench=. -benchmem
package fedprox_bench

import (
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/experiments"
	"fedprox/internal/frand"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// benchOptions are small enough that the full bench suite completes in a
// couple of minutes.
func benchOptions() experiments.Options {
	o := experiments.Fast()
	o.Scale = 0.1
	o.Rounds = 10
	o.SeqRounds = 2
	o.EvalEvery = 5
	o.LocalEpochs = 10
	o.Hidden = 8
	o.Embed = 4
	o.MaxSeqLen = 8
	return o
}

// runExperiment executes the registered experiment once per iteration and
// reports metric (derived from the result) under name.
func runExperiment(b *testing.B, id string, o experiments.Options, name string, metric func(*experiments.Result) float64) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, o)
		if err != nil {
			b.Fatal(err)
		}
		if name != "" {
			b.ReportMetric(metric(res), name)
		}
	}
}

// finalLoss returns the final training loss of run r in section s.
func finalLoss(res *experiments.Result, s, r int) float64 {
	return res.Sections[s].Runs[r].Final().TrainLoss
}

func BenchmarkTable1Stats(b *testing.B) {
	runExperiment(b, "table1", benchOptions(), "", nil)
}

func BenchmarkFigure1Synthetic(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"synthetic"}
	// Metric: FedAvg loss minus FedProx(best mu) loss at 90% stragglers —
	// positive means the paper's ordering holds.
	runExperiment(b, "figure1", o, "straggler-gap", func(res *experiments.Result) float64 {
		last := len(res.Sections) - 1
		return finalLoss(res, last, 0) - finalLoss(res, last, 2)
	})
}

func BenchmarkFigure1MNIST(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"mnist"}
	runExperiment(b, "figure1", o, "straggler-gap", func(res *experiments.Result) float64 {
		last := len(res.Sections) - 1
		return finalLoss(res, last, 0) - finalLoss(res, last, 2)
	})
}

func BenchmarkFigure1FEMNIST(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"femnist"}
	runExperiment(b, "figure1", o, "straggler-gap", func(res *experiments.Result) float64 {
		last := len(res.Sections) - 1
		return finalLoss(res, last, 0) - finalLoss(res, last, 2)
	})
}

func BenchmarkFigure1Shakespeare(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"shakespeare"}
	runExperiment(b, "figure1", o, "", nil)
}

func BenchmarkFigure1Sent140(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"sent140"}
	runExperiment(b, "figure1", o, "", nil)
}

func BenchmarkFigure2Heterogeneity(b *testing.B) {
	// Metric: gradient variance on Synthetic(1,1) minus Synthetic-IID for
	// mu=0 — positive means the dissimilarity ladder has the right slope.
	runExperiment(b, "figure2", benchOptions(), "var-slope", func(res *experiments.Result) float64 {
		hi := res.Sections[3].Runs[0].Final().GradVar
		lo := res.Sections[0].Runs[0].Final().GradVar
		return hi - lo
	})
}

func BenchmarkFigure3AdaptiveMu(b *testing.B) {
	runExperiment(b, "figure3", benchOptions(), "", nil)
}

func BenchmarkFigure4FedDane(b *testing.B) {
	runExperiment(b, "figure4", benchOptions(), "", nil)
}

func BenchmarkFigure5IIDRobustness(b *testing.B) {
	// Metric: |FedAvg loss difference between 0% and 90% stragglers| on
	// IID data — the paper's point is that this stays small.
	runExperiment(b, "figure5", benchOptions(), "iid-gap", func(res *experiments.Result) float64 {
		g := finalLoss(res, 3, 0) - finalLoss(res, 0, 0)
		if g < 0 {
			g = -g
		}
		return g
	})
}

func BenchmarkFigure6FullMetrics(b *testing.B) {
	runExperiment(b, "figure6", benchOptions(), "", nil)
}

func BenchmarkFigure7Accuracy(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"synthetic", "mnist"}
	runExperiment(b, "figure7", o, "", nil)
}

func BenchmarkFigure8Dissimilarity(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"synthetic", "femnist"}
	runExperiment(b, "figure8", o, "", nil)
}

func BenchmarkFigure9OneEpochLoss(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"synthetic"}
	runExperiment(b, "figure9", o, "", nil)
}

func BenchmarkFigure10OneEpochAccuracy(b *testing.B) {
	o := benchOptions()
	o.Datasets = []string{"synthetic"}
	runExperiment(b, "figure10", o, "", nil)
}

func BenchmarkFigure11AdaptiveMuAll(b *testing.B) {
	runExperiment(b, "figure11", benchOptions(), "", nil)
}

func BenchmarkFigure12SamplingSchemes(b *testing.B) {
	runExperiment(b, "figure12", benchOptions(), "", nil)
}

// --- extension benches ---

func BenchmarkExtTheory(b *testing.B) {
	runExperiment(b, "ext-theory", benchOptions(), "", nil)
}

func BenchmarkExtSyshet(b *testing.B) {
	runExperiment(b, "ext-syshet", benchOptions(), "", nil)
}

func BenchmarkExtSolvers(b *testing.B) {
	runExperiment(b, "ext-solvers", benchOptions(), "", nil)
}

func BenchmarkExtGamma(b *testing.B) {
	// Metric: gamma(E=1) − gamma(E=20); positive means inexactness falls
	// with local work, as Definition 2 intends.
	runExperiment(b, "ext-gamma", benchOptions(), "gamma-drop", func(res *experiments.Result) float64 {
		runs := res.Sections[0].Runs
		return runs[0].Final().MeanGamma - runs[len(runs)-1].Final().MeanGamma
	})
}

// --- ablation benches: μ, the straggler policy and the epoch budget ---

func BenchmarkAblationMu(b *testing.B) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	for _, mu := range []float64{0, 0.001, 0.01, 0.1, 1} {
		b.Run(muName(mu), func(b *testing.B) {
			cfg := core.FedProx(10, 10, 10, 0.01, mu)
			cfg.EvalEvery = 10
			cfg.StragglerFraction = 0.9
			for i := 0; i < b.N; i++ {
				h, err := core.Run(mdl, fed, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(h.Final().TrainLoss, "final-loss")
			}
		})
	}
}

func muName(mu float64) string {
	switch mu {
	case 0:
		return "mu=0"
	case 0.001:
		return "mu=0.001"
	case 0.01:
		return "mu=0.01"
	case 0.1:
		return "mu=0.1"
	default:
		return "mu=1"
	}
}

func BenchmarkAblationStragglerPolicy(b *testing.B) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	for _, policy := range []core.StragglerPolicy{core.DropStragglers, core.AggregatePartial} {
		b.Run(policy.String(), func(b *testing.B) {
			cfg := core.FedProx(10, 10, 10, 0.01, 0)
			cfg.Straggler = policy
			cfg.StragglerFraction = 0.9
			cfg.EvalEvery = 10
			for i := 0; i < b.N; i++ {
				h, err := core.Run(mdl, fed, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(h.Final().TrainLoss, "final-loss")
			}
		})
	}
}

func BenchmarkAblationEpochs(b *testing.B) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	for _, e := range []int{1, 5, 20} {
		b.Run(epochName(e), func(b *testing.B) {
			cfg := core.FedProx(10, 10, e, 0.01, 0)
			cfg.EvalEvery = 10
			for i := 0; i < b.N; i++ {
				h, err := core.Run(mdl, fed, cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(h.Final().TrainLoss, "final-loss")
			}
		})
	}
}

func epochName(e int) string {
	switch e {
	case 1:
		return "E=1"
	case 5:
		return "E=5"
	default:
		return "E=20"
	}
}

// --- codec benches (internal/comm hot paths) ---

// BenchmarkCodec measures each codec's encode+decode round-trip on a
// realistically sized parameter vector (a 64k-parameter model, the order
// of the LSTM workloads). The wire-bytes metric tracks the compression
// each codec achieves on the same input. The loop owns what it is handed
// the way an endpoint does — the decoded vector goes back to the tensor
// pool and the update is released after its decode — so the time is the
// codec's and allocs/op its small headers, not the allocator refilling
// payloads. The f32 row is the width the AVX2 strips do not cover.
func BenchmarkCodec(b *testing.B) {
	const n = 1 << 16
	rng := frand.New(11)
	params := rng.NormVec(make([]float64, n), 0, 1)
	// prev is close to params, the round-over-round shape delta-family
	// codecs exploit.
	prev := make([]float64, n)
	for i := range prev {
		prev[i] = params[i] + rng.NormMeanStd(0, 0.05)
	}
	specs := []comm.Spec{
		{Name: "raw"},
		{Name: "delta"},
		{Name: "qsgd", Bits: 8},
		{Name: "qsgd", Bits: 4},
		{Name: "delta+qsgd", Bits: 8},
		{Name: "delta+qsgd", Bits: 8, Precision: tensor.F32},
		{Name: "topk", TopK: 0.1},
	}
	for _, spec := range specs {
		b.Run(spec.String(), func(b *testing.B) {
			c, err := spec.ForDevice(comm.Uplink, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(8 * n)
			b.ReportAllocs()
			var wire int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := c.Encode(params, prev)
				v, err := c.Decode(u, prev)
				if err != nil {
					b.Fatal(err)
				}
				wire = u.WireBytes()
				tensor.PutVec(v)
				u.Release()
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}

func BenchmarkLocalSolverSGD(b *testing.B) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	train := fed.Shards[0].Train
	w0 := make([]float64, mdl.NumParams())
	cfg := solver.Config{LearningRate: 0.01, BatchSize: 10, Mu: 1}
	rng := frand.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.SGD(mdl, train, w0, cfg, 5, rng)
	}
}

func BenchmarkLocalSolverGD(b *testing.B) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.1))
	mdl := linear.ForDataset(fed)
	train := fed.Shards[0].Train
	w0 := make([]float64, mdl.NumParams())
	cfg := solver.Config{LearningRate: 0.01, BatchSize: 10, Mu: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.GDSolver{}.Solve(mdl, train, w0, cfg, 5, nil)
	}
}
