package main

import (
	"sort"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// ladderReps is how many timed loops a rung runs to report the median.
const ladderReps = 5

// rung is one direct call into a layer. op runs it once; per divides
// the time of one call into the rung's unit.
type rung struct {
	name string
	per  float64 // nanoseconds of one op per reported unit
	op   func()
}

// sinkF keeps the results of pure calls alive.
var sinkF float64

// ladder times the unit rungs, kernel to device dispatch, on the
// workloads' own shapes: the 784×10 linear model, batch 10, and the
// MNIST-shaped dataset's median-size shard. Each rung loops for
// budget/len(rungs), split into ladderReps repetitions.
func ladder(seed uint64, budget time.Duration) map[string]float64 {
	fed := mnistDataset(seed)
	mdl := linear.ForDataset(fed)
	shards := append([]*data.Shard(nil), fed.Shards...)
	sort.Slice(shards, func(i, j int) bool { return len(shards[i].Train) < len(shards[j].Train) })
	shard := shards[len(shards)/2]
	batch := shard.Train[:min(10, len(shard.Train))]
	rng := frand.New(seed).Split("benchmark-ladder")
	n := mdl.NumParams()
	w := rng.NormVec(make([]float64, n), 0, 0.01)
	x := rng.NormVec(make([]float64, n), 0, 1)
	grad := make([]float64, n)

	scfg := solver.Config{LearningRate: 0.03, BatchSize: 10, Mu: 1}
	dispatch := func(p tensor.Precision) func() {
		dev := core.NewDevice(mdl, []*data.Shard{shard}, core.DeviceOptions{Precision: p})
		d := core.Dispatch{
			Device: shard.ID, Epochs: 1, Mu: 1, LearningRate: 0.03, BatchSize: 10,
			View: w, DownBytes: int64(8 * n),
		}
		return func() {
			d.BatchSeed++
			r, err := dev.HandleDispatch(d)
			if err != nil {
				panic(err)
			}
			tensor.PutVec(r.Params)
		}
	}

	deltas := make([]core.StaleDelta, 10)
	for i := range deltas {
		deltas[i] = core.StaleDelta{Delta: rng.NormVec(make([]float64, n), 0, 1e-6), Weight: float64(10 + i), Version: i / 2}
	}
	folded := tensor.Clone(w)

	spec := comm.Spec{Name: "delta+qsgd", Bits: 8, Seed: seed}.WithDefaults()
	codec, err := spec.ForDevice(comm.Uplink, 0)
	if err != nil {
		panic(err)
	}
	update := codec.Encode(x, w)

	fleet := scaleFleet(seed)
	fleetModel := linear.New(fleet.Config().Dim, fleet.Config().Classes)
	fleetW := make([]float64, fleetModel.NumParams())

	eng := vtime.NewEngine()
	for i := 0; i < 128; i++ {
		eng.Schedule(float64(i), func() {})
	}

	rungs := []rung{
		{"tensor.dot_ns_per_elem", float64(n), func() { sinkF += tensor.Dot(w, x) }},
		{"tensor.axpy_ns_per_elem", float64(n), func() { tensor.Axpy(1e-9, x, grad) }},
		{"model.grad_ns_per_example", float64(len(batch)), func() { sinkF += mdl.Grad(grad, w, batch) }},
		{"model.loss_ns_per_example", float64(len(batch)), func() { sinkF += mdl.Loss(w, batch) }},
		{"solver.sgd_epoch_ns_per_example", float64(len(shard.Train)), func() {
			tensor.PutVec(solver.SGD(mdl, shard.Train, w, scfg, 1, rng))
		}},
		{"core.device_dispatch_f64_us", 1e3, dispatch(tensor.F64)},
		{"core.device_dispatch_f32_us", 1e3, dispatch(tensor.F32)},
		{"core.fold_us", 1e3, func() {
			core.FoldStaleDeltas(folded, deltas, len(deltas), core.UniformWeightedAvg, 1, 0.5)
		}},
		{"comm.encode_ns_per_coord", float64(n), func() { update = codec.Encode(x, w) }},
		{"comm.decode_ns_per_coord", float64(n), func() {
			v, err := codec.Decode(update, w)
			if err != nil {
				panic(err)
			}
			tensor.PutVec(v)
		}},
		{"metrics.fleet_loss_s", 1e9, func() { sinkF += metrics.FleetLoss(fleetModel, fleet, fleetW) }},
		{"metrics.fleet_accuracy_s", 1e9, func() { sinkF += metrics.FleetAccuracy(fleetModel, fleet, fleetW) }},
		{"frand.norm_ns", 1, func() { sinkF += rng.Norm() }},
		{"vtime.event_ns", 1, func() {
			eng.Schedule(eng.Now()+128, func() {})
			eng.Step()
		}},
	}
	out := map[string]float64{"comm.wire_bytes_per_update": float64(update.WireBytes())}
	for _, r := range rungs {
		out[r.name] = timeOp(r.op, budget/time.Duration(len(rungs)*ladderReps)) / r.per
	}
	return out
}

// timeOp returns the median over ladderReps repetitions of op's time in
// nanoseconds, each repetition calling op until repBudget has passed.
func timeOp(op func(), repBudget time.Duration) float64 {
	op() // untimed: fills pools, faults pages in
	reps := make([]float64, ladderReps)
	for i := range reps {
		calls := 0
		start := time.Now()
		var spent time.Duration
		for spent < repBudget {
			// Batches of calls keep the clock reads out of short ops.
			for range max(calls, 1) {
				op()
			}
			calls += max(calls, 1)
			spent = time.Since(start)
		}
		reps[i] = float64(spent) / float64(calls)
	}
	sort.Float64s(reps)
	return reps[len(reps)/2]
}
