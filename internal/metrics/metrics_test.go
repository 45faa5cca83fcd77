package metrics

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/tensor"
)

// identicalShards builds a network whose devices all hold the same data,
// the B(w) = 1 sanity case from Definition 3.
func identicalShards(devices int) *data.Federated {
	rng := frand.New(21)
	base := make([]data.Example, 30)
	for i := range base {
		x := rng.NormVec(make([]float64, 4), 0, 1)
		y := 0
		if x[0] > 0 {
			y = 1
		}
		base[i] = data.Example{X: x, Y: y}
	}
	fed := &data.Federated{Name: "identical", NumClasses: 2, FeatureDim: 4}
	for d := 0; d < devices; d++ {
		fed.Shards = append(fed.Shards, &data.Shard{ID: d, Train: base, Test: base[:5]})
	}
	return fed
}

func skewedShards() *data.Federated {
	rng := frand.New(23)
	fed := &data.Federated{Name: "skewed", NumClasses: 2, FeatureDim: 4}
	for d := 0; d < 6; d++ {
		exs := make([]data.Example, 20)
		for i := range exs {
			x := rng.NormVec(make([]float64, 4), float64(d), 1)
			exs[i] = data.Example{X: x, Y: d % 2}
		}
		fed.Shards = append(fed.Shards, &data.Shard{ID: d, Train: exs, Test: exs[:4]})
	}
	return fed
}

func TestGlobalLossWeighted(t *testing.T) {
	fed := identicalShards(4)
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	// All shards identical ⇒ global loss equals any single shard's loss.
	want := m.Loss(w, fed.Shards[0].Train)
	if got := FleetLoss(m, fed.Fleet(), w); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FleetLoss = %g, want %g", got, want)
	}
}

func TestGlobalLossRespectsWeights(t *testing.T) {
	// Two devices with different sizes: the larger must dominate.
	rng := frand.New(25)
	mk := func(n int, mean float64, y int) []data.Example {
		out := make([]data.Example, n)
		for i := range out {
			out[i] = data.Example{X: rng.NormVec(make([]float64, 2), mean, 0.1), Y: y}
		}
		return out
	}
	fed := &data.Federated{Name: "two", NumClasses: 2, FeatureDim: 2}
	fed.Shards = append(fed.Shards,
		&data.Shard{ID: 0, Train: mk(90, 1, 0), Test: mk(2, 1, 0)},
		&data.Shard{ID: 1, Train: mk(10, -1, 1), Test: mk(2, -1, 1)},
	)
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	l0 := m.Loss(w, fed.Shards[0].Train)
	l1 := m.Loss(w, fed.Shards[1].Train)
	want := 0.9*l0 + 0.1*l1
	if got := FleetLoss(m, fed.Fleet(), w); math.Abs(got-want) > 1e-12 {
		t.Fatalf("FleetLoss = %g, want %g", got, want)
	}
}

func TestTestAccuracyPerfectAndZero(t *testing.T) {
	fed := identicalShards(3)
	m := linear.ForDataset(fed)
	// Weights that implement "predict 1 iff x0 > 0" exactly: class-1 row
	// gets +x0 weight.
	w := make([]float64, m.NumParams())
	w[4] = 100 // W[1][0]
	acc := FleetAccuracy(m, fed.Fleet(), w)
	if acc < 0.99 {
		t.Fatalf("constructed classifier accuracy = %g, want ~1", acc)
	}
	// Inverted classifier: accuracy ~0.
	w[4] = -100
	if acc := FleetAccuracy(m, fed.Fleet(), w); acc > 0.01 {
		t.Fatalf("inverted classifier accuracy = %g, want ~0", acc)
	}
}

func TestTestAccuracyEmptyNetwork(t *testing.T) {
	fed := &data.Federated{Name: "e", NumClasses: 2, FeatureDim: 1,
		Shards: []*data.Shard{{Train: []data.Example{{X: []float64{1}, Y: 0}}}}}
	m := linear.ForDataset(fed)
	if acc := FleetAccuracy(m, fed.Fleet(), make([]float64, m.NumParams())); acc != 0 {
		t.Fatalf("accuracy with no test data = %g, want 0", acc)
	}
}

func TestDissimilarityIdenticalDevices(t *testing.T) {
	fed := identicalShards(5)
	m := linear.ForDataset(fed)
	rng := frand.New(27)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
	variance, b := FleetDissimilarity(m, fed.Fleet(), w)
	if variance > 1e-18 {
		t.Fatalf("identical devices have gradient variance %g, want 0", variance)
	}
	if math.Abs(b-1) > 1e-6 {
		t.Fatalf("identical devices B(w) = %g, want 1", b)
	}
}

func TestDissimilarityGrowsWithSkew(t *testing.T) {
	fed := skewedShards()
	m := linear.ForDataset(fed)
	rng := frand.New(29)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
	vSkew, bSkew := FleetDissimilarity(m, fed.Fleet(), w)
	if vSkew <= 0 {
		t.Fatalf("skewed variance = %g, want > 0", vSkew)
	}
	if bSkew < 1 {
		t.Fatalf("B(w) = %g, want >= 1", bSkew)
	}
}

// TestVarianceIdentity checks E‖∇F_k − ∇f‖² = E‖∇F_k‖² − ‖∇f‖², the
// identity behind Corollary 10, holds for the implementation.
func TestVarianceIdentity(t *testing.T) {
	fed := skewedShards()
	m := linear.ForDataset(fed)
	rng := frand.New(31)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.3)
	variance, b := FleetDissimilarity(m, fed.Fleet(), w)

	// Recompute the two sides by hand.
	weights := fed.Weights()
	gf := make([]float64, m.NumParams())
	exp2 := 0.0
	grads := make([][]float64, len(fed.Shards))
	for k, s := range fed.Shards {
		g := make([]float64, m.NumParams())
		m.Grad(g, w, s.Train)
		grads[k] = g
		for i := range gf {
			gf[i] += weights[k] * g[i]
		}
	}
	normF2 := 0.0
	for _, v := range gf {
		normF2 += v * v
	}
	for k, g := range grads {
		d := 0.0
		for i := range g {
			d += g[i] * g[i]
		}
		exp2 += weights[k] * d
	}
	if math.Abs(variance-(exp2-normF2)) > 1e-9*(1+exp2) {
		t.Fatalf("variance identity violated: %g vs %g", variance, exp2-normF2)
	}
	if wantB := math.Sqrt(exp2 / normF2); math.Abs(b-wantB) > 1e-9 {
		t.Fatalf("B = %g, want %g", b, wantB)
	}
}

// TestFleetEvalParallelParity holds the package's "bit-identical at any
// worker count" claim: on a lazy fleet of 300 devices, every fleet
// evaluator equals — compared with ==, not a tolerance — a serial loop
// that visits the shards in ascending order and sums as it goes.
func TestFleetEvalParallelParity(t *testing.T) {
	cfg := synthetic.Default(1, 1).Scaled(0.02)
	cfg.Devices = 300
	fl := synthetic.NewFleet(cfg)
	m := linear.New(cfg.Dim, cfg.Classes)
	w := frand.New(37).NormVec(make([]float64, m.NumParams()), 0, 0.1)

	n := 0
	for k := range fl.NumDevices() {
		n += fl.TrainSize(k)
	}
	weights := make([]float64, fl.NumDevices())
	for k := range weights {
		weights[k] = float64(fl.TrainSize(k)) / float64(n)
	}
	var loss float64
	var correct, total int
	grads := make([][]float64, fl.NumDevices())
	for k := range grads {
		s := fl.Shard(k)
		l, c := ShardEval(m, w, s)
		loss += weights[k] * l
		correct += c
		total += len(s.Test)
		grads[k] = make([]float64, m.NumParams())
		m.Grad(grads[k], w, s.Train)
		fl.Release(s)
	}
	acc := float64(correct) / float64(total)
	gf := make([]float64, m.NumParams())
	for k, g := range grads {
		tensor.Axpy(weights[k], g, gf)
	}
	var variance, exp2 float64
	for k, g := range grads {
		exp2 += weights[k] * tensor.Dot(g, g)
		variance += weights[k] * tensor.SqDist(g, gf)
	}
	b := math.Sqrt(exp2 / tensor.Dot(gf, gf))

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if gl, ga := FleetEval(m, fl, w); gl != loss || ga != acc {
			t.Errorf("procs=%d: FleetEval = (%v, %v), serial (%v, %v)", procs, gl, ga, loss, acc)
		}
		if got := FleetLoss(m, fl, w); got != loss {
			t.Errorf("procs=%d: FleetLoss = %v, serial %v", procs, got, loss)
		}
		if got := FleetAccuracy(m, fl, w); got != acc {
			t.Errorf("procs=%d: FleetAccuracy = %v, serial %v", procs, got, acc)
		}
		if gv, gb := FleetDissimilarity(m, fl, w); gv != variance || gb != b {
			t.Errorf("procs=%d: FleetDissimilarity = (%v, %v), serial (%v, %v)", procs, gv, gb, variance, b)
		}
	}
}

// TestFleetEvalMatchesSeparatePasses: the fused pass returns exactly
// (FleetLoss, FleetAccuracy) — compared with ==, not a tolerance — on an
// eager fleet, a lazy one, and a fleet with no test examples (accuracy
// 0), sequentially and on the worker pool.
func TestFleetEvalMatchesSeparatePasses(t *testing.T) {
	mnist := mnistsim.GenerateScaled(0.05)
	lazyCfg := synthetic.Default(1, 1).Scaled(0.05)
	lazyCfg.Devices = 64
	noTest := &data.Federated{Name: "no-test", NumClasses: 2, FeatureDim: 4}
	for _, s := range skewedShards().Shards {
		noTest.Shards = append(noTest.Shards, &data.Shard{ID: s.ID, Train: s.Train})
	}
	cases := []struct {
		name    string
		m       model.Model
		fl      data.Fleet
		zeroAcc bool
	}{
		{"eager-mnistsim", linear.ForDataset(mnist), mnist.Fleet(), false},
		{"lazy-synthetic", linear.New(lazyCfg.Dim, lazyCfg.Classes), synthetic.NewFleet(lazyCfg), false},
		{"no-test-examples", linear.ForDataset(noTest), noTest.Fleet(), true},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range cases {
			w := frand.New(29).NormVec(make([]float64, tc.m.NumParams()), 0, 0.1)
			loss, acc := FleetEval(tc.m, tc.fl, w)
			if want := FleetLoss(tc.m, tc.fl, w); loss != want {
				t.Errorf("%s procs=%d: FleetEval loss = %v, FleetLoss = %v", tc.name, procs, loss, want)
			}
			if want := FleetAccuracy(tc.m, tc.fl, w); acc != want {
				t.Errorf("%s procs=%d: FleetEval acc = %v, FleetAccuracy = %v", tc.name, procs, acc, want)
			}
			if tc.zeroAcc != (acc == 0) {
				t.Errorf("%s procs=%d: acc = %v, want zero: %v", tc.name, procs, acc, tc.zeroAcc)
			}
		}
	}
}

// TestFleetEvalAllocsPerShardFloor: a fleet evaluation over a lazy fleet
// allocates nothing per shard — the same count at 500 devices and at
// 5 000. The shard's storage comes from the fleet's free list, its model
// scratch and the model's logits from tensor's pool, and its predicted
// labels from this package's. One worker and no collection during the
// runs keep each pool's contents, and so the count, deterministic.
func TestFleetEvalAllocsPerShardFloor(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(devices int) float64 {
		c := synthetic.Default(1, 1)
		c.Devices, c.MinSamples, c.MaxSamples = devices, 15, 15 // one shard size: no buffer regrows
		fl := synthetic.NewFleet(c)
		m := linear.New(c.Dim, c.Classes)
		w := frand.New(41).NormVec(make([]float64, m.NumParams()), 0, 0.1)
		return testing.AllocsPerRun(3, func() { FleetEval(m, fl, w) })
	}
	if small, large := allocs(500), allocs(5000); small != large {
		t.Fatalf("FleetEval allocates %v times at 500 devices and %v at 5 000: something is allocated per shard", small, large)
	}
}

// BenchmarkFleetEval is the unit price of one fleet evaluation on
// vtime-fleet-eval's fleet shape (12 500 devices, 10 features, 5 classes,
// 10 to 20 samples) with the label memo full, as at every evaluation of
// a run after its first: per op, 12 500 shard re-syntheses, each scored
// and released.
func BenchmarkFleetEval(b *testing.B) {
	fl := synthetic.NewFleet(synthetic.Config{
		Alpha: 1, Beta: 1, Devices: 12500, Dim: 10, Classes: 5,
		MinSamples: 10, MaxSamples: 20, PowerAlpha: 1.55, TrainFrac: 0.8, Seed: 43,
	})
	m := linear.New(10, 5)
	w := frand.New(41).NormVec(make([]float64, m.NumParams()), 0, 0.1)
	FleetEval(m, fl, w) // fills the label memo
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		benchLoss, benchAcc = FleetEval(m, fl, w)
	}
}

var benchLoss, benchAcc float64

// TestEvalMatchesEagerPair: on a *data.Federated measured through its
// eager Fleet adapter, the fused pass is exactly FleetLoss + FleetAccuracy.
func TestEvalMatchesEagerPair(t *testing.T) {
	fed := skewedShards()
	m := linear.ForDataset(fed)
	w := frand.New(31).NormVec(make([]float64, m.NumParams()), 0, 0.5)
	loss, acc := FleetEval(m, fed.Fleet(), w)
	if loss != FleetLoss(m, fed.Fleet(), w) || acc != FleetAccuracy(m, fed.Fleet(), w) {
		t.Fatalf("FleetEval = (%v, %v), want (%v, %v)", loss, acc, FleetLoss(m, fed.Fleet(), w), FleetAccuracy(m, fed.Fleet(), w))
	}
}
