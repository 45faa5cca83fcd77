// Package speed holds the repository's gated hot-path micro-benchmarks
// as plain functions over *testing.B, so two harnesses can share one
// body: the `go test -bench` suite (bench_test.go delegates here) and
// cmd/fedspeed, which runs them via testing.Benchmark to regenerate and
// gate the committed BENCH_speed.json (see internal/obs.BenchPoint).
//
// Only mechanism benchmarks belong here — code on the per-reply or
// per-dispatch hot path whose ns/op is meaningful in isolation. Whole
// experiment benchmarks stay in bench_test.go; their headline number is
// model quality, gated by BENCH_baseline.json instead.
package speed

import (
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// Benchmarks enumerates the gated benchmarks by the stable names used in
// BENCH_speed.json.
var Benchmarks = []struct {
	Name string
	Fn   func(*testing.B)
}{
	{"CoordinatorFold", CoordinatorFold},
	{"DeviceDispatch", DeviceDispatch},
	{"DeviceDispatchF32", DeviceDispatchF32},
	{"SolvePerExample", SolvePerExample},
	{"SolveBatched", SolveBatched},
}

// CoordinatorFold measures the coordinator's staleness-damped fold
// (core.FoldStaleDeltas) — the arithmetic every asynchronous reply
// crosses on its way into the global model, shared by the fednet runtime
// and the virtual-time simulator. The workload is one FedBuff-style
// flush: K buffered deltas of a 10k-parameter model at mixed staleness.
func CoordinatorFold(b *testing.B) {
	const dim, k = 10_000, 10
	rng := frand.New(11)
	w := rng.NormVec(make([]float64, dim), 0, 1)
	batch := make([]core.StaleDelta, k)
	for i := range batch {
		batch[i] = core.StaleDelta{
			Delta:   rng.NormVec(make([]float64, dim), 0, 0.01),
			Weight:  float64(100 + 10*i),
			Version: i / 2, // mixed staleness against version k
		}
	}
	b.ReportAllocs()
	b.SetBytes(8 * dim * k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !core.FoldStaleDeltas(w, batch, k, core.UniformWeightedAvg, 1, 0.5) {
			b.Fatal("fold did not advance the model")
		}
	}
}

// dispatchEpochs is the local-epoch budget both dispatch benchmarks
// hand the device per contact.
const dispatchEpochs = 5

// dispatchBenchFed builds the dispatch benchmarks' dataset: a single
// MNIST-shaped device (784 features, 10 classes, 64 train examples), the
// workload the paper's E = 20 local-epoch experiments run. The synthetic
// generator's paper-scale 60-feature shards are too small for a dispatch
// to be anything but codec bookkeeping.
func dispatchBenchFed() *data.Federated {
	return synthetic.Generate(synthetic.Config{
		Alpha:      1,
		Beta:       1,
		Devices:    1,
		Dim:        784,
		Classes:    10,
		MinSamples: 80,
		MaxSamples: 80,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       42,
	})
}

// DeviceDispatch measures the device runtime's full dispatch hot path —
// downlink decode, local solve, uplink encode on a stateful chained
// codec — the per-contact work every executor (simulator, vtime driver,
// fednet worker) performs through the same core.Device. The
// coordinator's half (broadcast encode) runs outside the timer. Each
// dispatch runs dispatchEpochs local epochs so the solve-to-codec mix
// resembles a real contact (the paper's experiments run E = 20 local
// epochs; one would make the fixed per-contact codec cost dominate).
func DeviceDispatch(b *testing.B) { deviceDispatch(b, tensor.F64) }

// DeviceDispatchF32 is DeviceDispatch at Precision f32: the same body,
// workload, codec chain and dispatch schedule, differing in arithmetic
// width only.
func DeviceDispatchF32(b *testing.B) { deviceDispatch(b, tensor.F32) }

func deviceDispatch(b *testing.B, prec tensor.Precision) {
	fed := dispatchBenchFed()
	mdl := linear.ForDataset(fed)
	shard := fed.Shards[0]
	spec := comm.Spec{Name: "delta+qsgd", Bits: 8, Seed: 11, Precision: prec}.WithDefaults()

	dev := core.NewDevice(mdl, fed.Shards[:1], core.DeviceOptions{Precision: prec})
	if err := dev.InstallLinks(spec, spec); err != nil {
		b.Fatal(err)
	}
	srv, err := comm.NewLinkState(spec, spec)
	if err != nil {
		b.Fatal(err)
	}
	rng := frand.New(3)
	wt := mdl.InitParams(rng.Split("params"))

	// Pre-encode b.N broadcasts (the coordinator's job) so the timed
	// loop holds only device-side work. Each broadcast is perturbed so
	// the delta chain never degenerates.
	updates := make([]*comm.Update, b.N)
	seeds := make([]uint64, b.N)
	for i := 0; i < b.N; i++ {
		enc, _, err := srv.Link(shard.ID)
		if err != nil {
			b.Fatal(err)
		}
		prev := srv.Prev(shard.ID)
		u := enc.Encode(wt, prev)
		view, err := enc.Decode(u, prev)
		if err != nil {
			b.Fatal(err)
		}
		srv.SetPrev(shard.ID, view)
		updates[i] = u
		seeds[i] = rng.SplitIndex(i).State()
		for j := range wt {
			wt[j] += 1e-3
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := dev.HandleDispatch(core.Dispatch{
			Device:       shard.ID,
			Epochs:       dispatchEpochs,
			Mu:           1,
			LearningRate: 0.01,
			BatchSize:    32,
			BatchSeed:    seeds[i],
			Update:       updates[i],
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Update == nil || r.EpochsDone != dispatchEpochs {
			b.Fatal("device dispatch produced no encoded update")
		}
	}
}

// solveBenchWorkload builds the shared workload of the solve-kernel pair:
// an MNIST-shaped multinomial regression (784 features, 10 classes) over
// 256 synthetic examples — large enough that gradient arithmetic, not
// bookkeeping, dominates each step.
func solveBenchWorkload() (*linear.Model, []data.Example, []float64) {
	const dim, classes, n = 784, 10, 256
	mdl := linear.New(dim, classes)
	rng := frand.New(17)
	train := make([]data.Example, n)
	for i := range train {
		train[i] = data.Example{
			X: rng.NormVec(make([]float64, dim), 0, 1),
			Y: rng.Intn(classes),
		}
	}
	w0 := mdl.InitParams(rng.Split("params"))
	return mdl, train, w0
}

// SolvePerExample measures one local SGD epoch at float64. The name is
// the key BENCH_speed.json has tracked since the float64 gradient walked
// the minibatch one example at a time; both widths now run the batched
// body, so the pair differs in arithmetic width only.
func SolvePerExample(b *testing.B) { solveEpoch(b, tensor.F64) }

// SolveBatched measures the same epoch at Precision f32.
func SolveBatched(b *testing.B) { solveEpoch(b, tensor.F32) }

func solveEpoch(b *testing.B, prec tensor.Precision) {
	mdl, train, w0 := solveBenchWorkload()
	cfg := solver.Config{LearningRate: 0.01, BatchSize: 32, Mu: 1, Precision: prec}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := solver.SGD(mdl, train, w0, cfg, 1, frand.New(uint64(i+1)))
		if len(w) != len(w0) {
			b.Fatal("solve returned wrong length")
		}
		tensor.PutVec(w)
	}
}
