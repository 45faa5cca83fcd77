package solver

import (
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model/linear"
	"fedprox/internal/tensor"
)

func trainSet(rng *frand.Source, n int) []data.Example {
	out := make([]data.Example, n)
	for i := range out {
		x := rng.NormVec(make([]float64, 4), 0, 1)
		y := 0
		if x[0]+x[1] > 0 {
			y = 1
		}
		out[i] = data.Example{X: x, Y: y}
	}
	return out
}

func TestSGDReducesLocalLoss(t *testing.T) {
	rng := frand.New(1)
	m := linear.New(4, 2)
	train := trainSet(rng, 60)
	w0 := make([]float64, m.NumParams())
	cfg := Config{LearningRate: 0.2, BatchSize: 10}
	w := SGD(m, train, w0, cfg, 10, rng.Split("batches"))
	if got, want := m.Loss(w, train), m.Loss(w0, train); got >= want {
		t.Fatalf("SGD did not reduce loss: %g >= %g", got, want)
	}
}

func TestSGDZeroEpochsReturnsStart(t *testing.T) {
	rng := frand.New(2)
	m := linear.New(4, 2)
	train := trainSet(rng, 20)
	w0 := rng.NormVec(make([]float64, m.NumParams()), 0, 1)
	w := SGD(m, train, w0, Config{LearningRate: 0.1, BatchSize: 5}, 0, rng)
	for i := range w {
		if w[i] != w0[i] {
			t.Fatal("zero epochs changed parameters")
		}
	}
	// And it must be a copy, not the same slice.
	w[0] = 123
	if w0[0] == 123 {
		t.Fatal("SGD returned the input slice")
	}
}

func TestSGDDeterministicUnderSeed(t *testing.T) {
	rng := frand.New(3)
	m := linear.New(4, 2)
	train := trainSet(rng, 40)
	w0 := make([]float64, m.NumParams())
	cfg := Config{LearningRate: 0.1, BatchSize: 7}
	a := SGD(m, train, w0, cfg, 3, frand.New(77))
	b := SGD(m, train, w0, cfg, 3, frand.New(77))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("SGD not deterministic under equal batch seeds")
		}
	}
}

// TestProximalTermPullsTowardStart verifies the defining property of the
// FedProx subproblem: larger μ keeps the local solution closer to wᵗ.
func TestProximalTermPullsTowardStart(t *testing.T) {
	rng := frand.New(5)
	m := linear.New(4, 2)
	train := trainSet(rng, 60)
	w0 := make([]float64, m.NumParams())
	// Keep η·μ < 2 so the proximal update itself is stable.
	dist := func(mu float64) float64 {
		cfg := Config{LearningRate: 0.1, BatchSize: 10, Mu: mu}
		w := SGD(m, train, w0, cfg, 20, frand.New(9))
		return tensor.SqDist(w, w0)
	}
	d0, d1, d5 := dist(0), dist(1), dist(5)
	if !(d5 < d1 && d1 < d0) {
		t.Fatalf("proximal pull not monotone: mu=0 %g, mu=1 %g, mu=5 %g", d0, d1, d5)
	}
}

func TestGDConvergesOnConvexProblem(t *testing.T) {
	rng := frand.New(7)
	m := linear.New(4, 2)
	train := trainSet(rng, 60)
	w0 := make([]float64, m.NumParams())
	cfg := Config{LearningRate: 0.5, BatchSize: 10}
	w := GDSolver{}.Solve(m, train, w0, cfg, 100, nil)
	grad := make([]float64, m.NumParams())
	m.Grad(grad, w, train)
	if n := tensor.Norm2(grad); n > 0.05 {
		t.Fatalf("GD gradient norm after 100 steps = %g", n)
	}
}

func TestGammaBounds(t *testing.T) {
	rng := frand.New(9)
	m := linear.New(4, 2)
	train := trainSet(rng, 60)
	w0 := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
	cfg := Config{LearningRate: 0.2, BatchSize: 10, Mu: 0.1}
	// No work: γ = 1 by definition.
	if g := Gamma(m, train, w0, w0, cfg); math.Abs(g-1) > 1e-12 {
		t.Fatalf("Gamma(no work) = %g, want 1", g)
	}
	// Substantial work: γ should drop well below 1.
	w := GDSolver{}.Solve(m, train, w0, cfg, 200, nil)
	if g := Gamma(m, train, w, w0, cfg); g > 0.5 {
		t.Fatalf("Gamma after 200 GD steps = %g, want < 0.5", g)
	}
}

func TestGammaMonotoneInWork(t *testing.T) {
	rng := frand.New(11)
	m := linear.New(4, 2)
	train := trainSet(rng, 60)
	w0 := make([]float64, m.NumParams())
	cfg := Config{LearningRate: 0.1, BatchSize: 10, Mu: 1}
	g5 := Gamma(m, train, GDSolver{}.Solve(m, train, w0, cfg, 5, nil), w0, cfg)
	g50 := Gamma(m, train, GDSolver{}.Solve(m, train, w0, cfg, 50, nil), w0, cfg)
	if g50 >= g5 {
		t.Fatalf("more local work did not reduce gamma: 5 steps %g, 50 steps %g", g5, g50)
	}
}

func TestGammaStationaryStart(t *testing.T) {
	m := linear.New(2, 2)
	// A single example with symmetric classes at w=0 is not stationary, so
	// construct stationarity with an empty-gradient case: two examples
	// with opposite features and opposite labels cancel at w=0.
	train := []data.Example{
		{X: []float64{1, 0}, Y: 0},
		{X: []float64{-1, 0}, Y: 1},
	}
	w0 := make([]float64, m.NumParams())
	g := make([]float64, m.NumParams())
	subproblemGrad(g, m, train, nil, w0, w0, Config{})
	if tensor.Norm2(g) > 1e-12 {
		t.Skipf("construction not stationary (|g|=%g); skip", tensor.Norm2(g))
	}
	if got := Gamma(m, train, w0, w0, Config{}); got != 0 {
		t.Fatalf("Gamma at stationary start = %g, want 0", got)
	}
}

func TestSubproblemGradIncludesProx(t *testing.T) {
	rng := frand.New(13)
	m := linear.New(3, 2)
	train := trainSet(rng, 20)[:0:0]
	train = append(train, data.Example{X: []float64{1, 0, 0}, Y: 0})
	w0 := make([]float64, m.NumParams())
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 1)
	gPlain := make([]float64, m.NumParams())
	m.Grad(gPlain, w, train)
	gProx := make([]float64, m.NumParams())
	lossProx := subproblemGrad(gProx, m, train, nil, w, w0, Config{Mu: 2})
	for i := range gProx {
		want := gPlain[i] + 2*(w[i]-w0[i])
		if math.Abs(gProx[i]-want) > 1e-12 {
			t.Fatalf("prox grad[%d] = %g, want %g", i, gProx[i], want)
		}
	}
	wantLoss := m.Loss(w, train) + tensor.SqDist(w, w0)
	if math.Abs(lossProx-wantLoss) > 1e-12 {
		t.Fatalf("prox loss = %g, want %g", lossProx, wantLoss)
	}
}

func TestCorrectionTermApplied(t *testing.T) {
	rng := frand.New(15)
	m := linear.New(3, 2)
	train := []data.Example{{X: []float64{1, 1, 1}, Y: 1}}
	w0 := make([]float64, m.NumParams())
	corr := rng.NormVec(make([]float64, m.NumParams()), 0, 1)
	// One GD step with a correction equals one plain step minus η·corr.
	cfgPlain := Config{LearningRate: 0.1, BatchSize: 1}
	cfgCorr := Config{LearningRate: 0.1, BatchSize: 1, Correction: corr}
	wPlain := GDSolver{}.Solve(m, train, w0, cfgPlain, 1, nil)
	wCorr := GDSolver{}.Solve(m, train, w0, cfgCorr, 1, nil)
	for i := range wCorr {
		want := wPlain[i] - 0.1*corr[i]
		if math.Abs(wCorr[i]-want) > 1e-12 {
			t.Fatalf("correction step[%d] = %g, want %g", i, wCorr[i], want)
		}
	}
}

// TestApplyStepCorrectionKeepsGoLoop: tensor.ProxStep (and the assembly
// under it) has no correction term, so a corrected step must stay on
// applyStep's own loop — every element, through any vector body and its
// tail, carries exactly w − η·((g + μ(w − w0)) + corr) — while the
// uncorrected step is tensor.ProxStep's bits.
func TestApplyStepCorrectionKeepsGoLoop(t *testing.T) {
	rng := frand.New(16)
	const n, eta, mu = 13, 0.1, 0.5
	draw := func() []float64 { return rng.NormVec(make([]float64, n), 0, 1) }
	w, grad, w0, corr := draw(), draw(), draw(), draw()

	got := tensor.Clone(w)
	applyStep(got, grad, w0, Config{LearningRate: eta, Mu: mu, Correction: corr})
	for i := range got {
		want := w[i] - eta*((grad[i]+mu*(w[i]-w0[i]))+corr[i])
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("corrected step[%d] = %v, want %v", i, got[i], want)
		}
	}

	plain, prox := tensor.Clone(w), tensor.Clone(w)
	applyStep(plain, grad, w0, Config{LearningRate: eta, Mu: mu})
	tensor.ProxStep(prox, grad, w0, eta, mu)
	for i := range plain {
		if math.Float64bits(plain[i]) != math.Float64bits(prox[i]) || plain[i] == got[i] {
			t.Fatalf("plain step[%d] = %v, ProxStep %v, corrected %v", i, plain[i], prox[i], got[i])
		}
	}
}

func TestSGDPanicsOnNegativeEpochs(t *testing.T) {
	m := linear.New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("negative epochs did not panic")
		}
	}()
	SGD(m, nil, make([]float64, m.NumParams()), Config{LearningRate: 1, BatchSize: 1}, -1, frand.New(1))
}

// TestMuStrongConvexityEffect: with μ large (and η·μ < 2 so the proximal
// update is stable), the subproblem is strongly convex around w0 and the
// solution stays near the start even after many epochs.
func TestMuStrongConvexityEffect(t *testing.T) {
	rng := frand.New(17)
	m := linear.New(4, 2)
	train := trainSet(rng, 40)
	w0 := make([]float64, m.NumParams())
	w := SGD(m, train, w0, Config{LearningRate: 0.1, BatchSize: 5, Mu: 5}, 50, frand.New(3))
	if d := math.Sqrt(tensor.SqDist(w, w0)); d > 1 {
		t.Fatalf("large-mu solution wandered %g from start", d)
	}
}
