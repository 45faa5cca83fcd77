package core

import (
	"runtime/debug"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// The hot-path micro-benchmarks: code every asynchronous reply or every
// dispatch crosses, whose cost is meaningful in isolation. Their
// timings are the benchmark of record's to judge (its ladder runs the
// same shapes as core.fold_us, core.device_dispatch_f64_us/_f32_us and
// solver.sgd_epoch_ns_per_example, on alternating pairs); what is
// deterministic about them — how many heap objects one iteration
// allocates once the pools are warm — TestHotPathAllocFloors asserts
// here. Each body is a set-up function returning one iteration, so the
// Benchmark* function and the floor test run the same code.
var hotPaths = []struct {
	name string
	// setup prepares n iterations' worth of input and returns the body
	// of one.
	setup func(tb testing.TB, n int) func()
	// floor is the steady-state allocation count of one iteration.
	floor float64
}{
	{"CoordinatorFold", foldStep, 0},
	{"DeviceDispatchF64", dispatchStepF64, 3},
	{"DeviceDispatchF32", dispatchStepF32, 3},
	{"DeviceEval", evalStep, 1},
	{"LazyShardVisit", lazyVisitStep, 0},
	{"SolveEpochF64", solveEpochStepF64, 0},
	{"SolveEpochF32", solveEpochStepF32, 0},
	{"SolveResultEscapes", solveEscapeStep, 1},
}

func dispatchStepF64(tb testing.TB, n int) func()   { return dispatchStep(tb, tensor.F64, n) }
func dispatchStepF32(tb testing.TB, n int) func()   { return dispatchStep(tb, tensor.F32, n) }
func solveEpochStepF64(tb testing.TB, _ int) func() { return solveEpochStep(tb, tensor.F64, 1, true) }
func solveEpochStepF32(tb testing.TB, _ int) func() { return solveEpochStep(tb, tensor.F32, 1, true) }
func solveEscapeStep(tb testing.TB, _ int) func()   { return solveEpochStep(tb, tensor.F64, 1, false) }

// TestHotPathAllocFloors pins each hot path's allocations per iteration
// at its floor: the fold and a solver epoch allocate nothing, a device
// dispatch under delta+qsgd allocates three small objects (update headers;
// every model-sized vector and payload comes from a pool, and the decoder
// applies the link base itself, with no re-labelled header copy), and a
// device eval one: the reply's row slice, its logits and predicted labels
// being pooled (per-example logits made it 18 here, and a label slice per
// shard 2). A lazy fleet's shard visit allocates nothing: the shard's
// storage comes off the fleet's free list (a fresh synthesis per visit
// was 24 objects). A solve whose
// result is never handed back allocates that result and nothing else —
// the one row that pins the pool's capacity-class rule: a pooled vector
// too short for a request stays pooled (it once cost a second
// allocation). One tensor.GetVec turned back into a make is one more
// object per iteration and fails here by name.
func TestHotPathAllocFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	// A collection empties the pools; none may land between iterations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 20
	for _, hp := range hotPaths {
		// AllocsPerRun calls step once more, first, to warm the pools.
		step := hp.setup(t, runs+1)
		if got := testing.AllocsPerRun(runs, step); got != hp.floor {
			t.Errorf("%s: %v allocs per iteration, floor is %v", hp.name, got, hp.floor)
		}
	}
}

func benchHotPath(b *testing.B, setup func(testing.TB, int) func()) {
	step := setup(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

func BenchmarkCoordinatorFold(b *testing.B)   { benchHotPath(b, foldStep) }
func BenchmarkDeviceDispatchF64(b *testing.B) { benchHotPath(b, dispatchStepF64) }
func BenchmarkDeviceDispatchF32(b *testing.B) { benchHotPath(b, dispatchStepF32) }
func BenchmarkDeviceEval(b *testing.B)        { benchHotPath(b, evalStep) }
func BenchmarkLazyShardVisit(b *testing.B)    { benchHotPath(b, lazyVisitStep) }
func BenchmarkSolveEpochF64(b *testing.B)     { benchHotPath(b, solveEpochStepF64) }
func BenchmarkSolveEpochF32(b *testing.B)     { benchHotPath(b, solveEpochStepF32) }

// BenchmarkSolveF32 is a whole float32 solve of SolveEpochF32's shape at
// 20 epochs, the sim-solve workloads' E: work a solve does once rather
// than once per epoch shows here and not in one epoch.
func BenchmarkSolveF32(b *testing.B) {
	benchHotPath(b, func(tb testing.TB, _ int) func() { return solveEpochStep(tb, tensor.F32, 20, true) })
}

// foldStep is the coordinator's staleness-damped fold (FoldStaleDeltas),
// the arithmetic every asynchronous reply crosses on its way into the
// global model, shared by the fednet runtime and the virtual-time
// simulator. One iteration is one FedBuff-style flush: K buffered deltas
// of a 10k-parameter model at mixed staleness.
func foldStep(tb testing.TB, _ int) func() {
	const dim, k = 10_000, 10
	rng := frand.New(11)
	w := rng.NormVec(make([]float64, dim), 0, 1)
	batch := make([]StaleDelta, k)
	for i := range batch {
		batch[i] = StaleDelta{
			Delta:   rng.NormVec(make([]float64, dim), 0, 0.01),
			Weight:  float64(100 + 10*i),
			Version: i / 2, // mixed staleness against version k
		}
	}
	return func() {
		if !FoldStaleDeltas(w, batch, k, UniformWeightedAvg, 1, 0.5) {
			tb.Fatal("fold did not advance the model")
		}
	}
}

// dispatchStep is the device runtime's full dispatch hot path — downlink
// decode, local solve, uplink encode on a stateful delta+qsgd 8-bit
// chain — the per-contact work every executor (simulator, vtime driver,
// fednet worker) performs through the same Device. The coordinator's
// half, the n broadcast encodes, happens here in set-up. The dataset is
// a single MNIST-shaped device (784 features, 10 classes, 64 train
// examples) and each dispatch runs five local epochs, so the
// solve-to-codec mix resembles a real contact: the synthetic generator's
// paper-scale 60-feature shards, or one epoch, would make the fixed
// per-contact codec cost dominate.
func dispatchStep(tb testing.TB, prec tensor.Precision, n int) func() {
	const epochs = 5
	fed := synthetic.Generate(synthetic.Config{
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
	mdl := linear.ForDataset(fed)
	shard := fed.Shards[0]
	spec := comm.Spec{Name: "delta+qsgd", Bits: 8, Seed: 11, Precision: prec}.WithDefaults()

	dev := NewDevice(mdl, fed.Shards[:1], DeviceOptions{Precision: prec})
	if err := dev.InstallLinks(spec, spec); err != nil {
		tb.Fatal(err)
	}
	srv, err := comm.NewLinkState(spec, spec)
	if err != nil {
		tb.Fatal(err)
	}
	rng := frand.New(3)
	wt := mdl.InitParams(rng.Split("params"))

	// Each broadcast is perturbed so the delta chain never degenerates.
	updates := make([]*comm.Update, n)
	seeds := make([]uint64, n)
	for i := range updates {
		enc, _, err := srv.Link(shard.ID)
		if err != nil {
			tb.Fatal(err)
		}
		prev := srv.Prev(shard.ID)
		u := enc.Encode(wt, prev)
		view, err := enc.Decode(u, prev)
		if err != nil {
			tb.Fatal(err)
		}
		srv.SetPrev(shard.ID, view)
		updates[i] = u
		seeds[i] = rng.SplitIndex(i).State()
		for j := range wt {
			wt[j] += 1e-3
		}
	}
	i := 0
	return func() {
		r, err := dev.HandleDispatch(Dispatch{
			Device:       shard.ID,
			Epochs:       epochs,
			Mu:           1,
			LearningRate: 0.01,
			BatchSize:    32,
			BatchSeed:    seeds[i],
			Update:       updates[i],
		})
		if err != nil {
			tb.Fatal(err)
		}
		if r.Update == nil || r.EpochsDone != epochs {
			tb.Fatal("device dispatch produced no encoded update")
		}
		i++
	}
}

// evalStep is one device's share of a fleet evaluation, what every
// executor's eval reaches through metrics.ShardEval: Device.HandleEval
// of a decoded broadcast over one MNIST-shaped shard (784 features, 10
// classes, 64 train and 16 test examples) — the mean training loss and
// the batched test predictions.
func evalStep(tb testing.TB, _ int) func() {
	fed := synthetic.Generate(synthetic.Config{
		Alpha: 1, Beta: 1, Devices: 1, Dim: 784, Classes: 10,
		MinSamples: 80, MaxSamples: 80, PowerAlpha: 1.55, TrainFrac: 0.8, Seed: 42,
	})
	mdl := linear.ForDataset(fed)
	dev := NewDevice(mdl, fed.Shards, DeviceOptions{})
	w := frand.New(5).NormVec(make([]float64, mdl.NumParams()), 0, 0.01)
	seq := 0
	return func() {
		seq++
		r, err := dev.HandleEval(EvalRequest{Seq: seq, Params: w})
		if err != nil || len(r.Devices) != 1 || r.Devices[0].TestN != 16 {
			tb.Fatalf("eval reply %+v, %v", r, err)
		}
	}
}

// lazyVisitStep is one device of a fleet evaluation on a lazy fleet —
// synthesize the shard, measure it with metrics.ShardEval, release it —
// cycling over the benchmark's 10-feature, 5-class Synthetic(1,1) shape.
// It allocates nothing: the shard's storage comes off the fleet's free
// list and ShardEval's predicted labels from a pool.
func lazyVisitStep(tb testing.TB, _ int) func() {
	fl := synthetic.NewFleet(synthetic.Config{
		Alpha: 1, Beta: 1, Devices: 64, Dim: 10, Classes: 5,
		MinSamples: 10, MaxSamples: 20, PowerAlpha: 1.55, TrainFrac: 0.8, Seed: 42,
	})
	mdl := linear.New(10, 5)
	w := frand.New(5).NormVec(make([]float64, mdl.NumParams()), 0, 0.01)
	// Grow the one buffer to the largest shard, so no visit reallocates.
	for k := range fl.NumDevices() {
		fl.Release(fl.Shard(k))
	}
	k := 0
	return func() {
		s := fl.Shard(k)
		if _, c := metrics.ShardEval(mdl, w, s); c > len(s.Test) {
			tb.Fatalf("device %d: %d correct of %d", k, c, len(s.Test))
		}
		fl.Release(s)
		k = (k + 1) % fl.NumDevices()
	}
}

// solveEpochStep is a local SGD solve of epochs epochs of an MNIST-shaped
// multinomial regression (784 features, 10 classes) over 256 synthetic
// examples — large enough that gradient arithmetic, not bookkeeping,
// dominates each step. The two widths run the same batched body. With
// recycle false the solution is dropped to the garbage collector instead
// of the pool.
func solveEpochStep(tb testing.TB, prec tensor.Precision, epochs int, recycle bool) func() {
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
	cfg := solver.Config{LearningRate: 0.01, BatchSize: 32, Mu: 1, Precision: prec}
	seed := uint64(0)
	return func() {
		seed++
		w := solver.SGD(mdl, train, w0, cfg, epochs, frand.New(seed))
		if len(w) != len(w0) {
			tb.Fatal("solve returned wrong length")
		}
		if recycle {
			tensor.PutVec(w)
		}
	}
}
