package solver

import (
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/tensor"
)

// relDrift returns ‖a−b‖/(‖b‖+1), a relative L2 distance that stays
// meaningful near the origin.
func relDrift(a, b []float64) float64 {
	var num, den float64
	for i := range b {
		d := a[i] - b[i]
		num += d * d
		den += b[i] * b[i]
	}
	return math.Sqrt(num) / (math.Sqrt(den) + 1)
}

// at32 is cfg at Precision f32: the same float64 entry points then
// narrow their inputs, compute at float32 and widen the result.
func at32(cfg Config) Config {
	cfg.Precision = tensor.F32
	return cfg
}

// TestF32DriftAgainstF64 runs the float32 solve against the float64
// reference across the hyperparameter corners the fast path must not
// distort: the plain subproblem, a prox-dominated one, a mu so small
// the proximal pull sits near float32 resolution, and full-batch
// gradient descent. Identical seeds mean identical batch schedules, so
// the only divergence is arithmetic width — which must stay rounding
// noise, not a different trajectory.
func TestF32DriftAgainstF64(t *testing.T) {
	rng := frand.New(7)
	m := linear.New(4, 2)
	train := trainSet(rng, 60)
	w0 := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)

	cases := []struct {
		name   string
		cfg    Config
		epochs int
		tol    float64
	}{
		{"plain sgd", Config{LearningRate: 0.1, BatchSize: 10}, 3, 1e-4},
		{"prox mu=1", Config{LearningRate: 0.1, BatchSize: 10, Mu: 1}, 3, 1e-4},
		{"prox dominated mu=10", Config{LearningRate: 0.05, BatchSize: 10, Mu: 10}, 3, 1e-4},
		// The proximal pull mu·(w−w0) sits ~7 decimal orders below the
		// data gradient here — at the edge of float32 resolution. The
		// trajectories must still agree: a tiny mu may round to a plain
		// SGD step, never to garbage.
		{"tiny mu=1e-8", Config{LearningRate: 0.1, BatchSize: 10, Mu: 1e-8}, 3, 1e-4},
		{"full batch", Config{LearningRate: 0.1, BatchSize: len(train), Mu: 1}, 5, 1e-4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w64 := SGD(m, train, w0, tc.cfg, tc.epochs, frand.New(42))
			w32 := SGD(m, train, w0, at32(tc.cfg), tc.epochs, frand.New(42))
			if d := relDrift(w32, w64); d > tc.tol {
				t.Fatalf("f32 solution drifted %.2e from f64 (tol %.0e)", d, tc.tol)
			}
			// The γ-probe must price both solutions the same: it is the
			// device's claim about how inexact its work was, and the
			// coordinator's partial-work policy keys off it.
			g64 := Gamma(m, train, w64, w0, tc.cfg)
			g32 := Gamma(m, train, w32, w0, at32(tc.cfg))
			if math.Abs(g64-g32) > 1e-3 {
				t.Fatalf("gamma drifted: f64 %.6f vs f32 %.6f", g64, g32)
			}
		})
	}
}

// TestF32GammaZeroGradient probes the γ edge case the division hides:
// a training set whose gradient at w0 is exactly zero (two copies of
// the same input with opposite labels cancel at w = 0). Both widths
// must agree on the degenerate value rather than one of them dividing
// by a denormal.
func TestF32GammaZeroGradient(t *testing.T) {
	m := linear.New(3, 2)
	x := []float64{0.5, -1, 2}
	train := []data.Example{{X: x, Y: 0}, {X: x, Y: 1}}
	w0 := make([]float64, m.NumParams())

	for _, mu := range []float64{0, 1e-8, 1} {
		cfg := Config{LearningRate: 0.1, BatchSize: 2, Mu: mu}
		g64 := Gamma(m, train, w0, w0, cfg)
		g32 := Gamma(m, train, w0, w0, at32(cfg))
		if math.IsNaN(g64) || math.IsNaN(g32) {
			t.Fatalf("mu=%g: gamma is NaN at a zero-gradient start (f64 %v, f32 %v)", mu, g64, g32)
		}
		if math.Abs(g64-g32) > 1e-6 {
			t.Fatalf("mu=%g: zero-gradient gamma disagrees: f64 %v vs f32 %v", mu, g64, g32)
		}
	}
}

// grad32 is subproblemGrad at float32 on w and w0 narrowed, widened.
func grad32(m model.Model, train []data.Example, w, w0 []float64, cfg Config) []float64 {
	g := make([]float32, len(w))
	rows, _ := narrowed(m, train, 0)
	subproblemGrad(g, m, train, rows, tensor.Converted[float32](w), tensor.Converted[float32](w0), cfg)
	return tensor.Converted[float64](g)
}

// TestF32SubproblemGradMatches checks the h_k gradient — data gradient
// plus prox pull — agrees between widths coordinate-wise, including
// when the prox term is the only non-zero part (zero data gradient,
// w far from w0).
func TestF32SubproblemGradMatches(t *testing.T) {
	rng := frand.New(9)
	m := linear.New(4, 2)
	train := trainSet(rng, 40)
	w0 := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)

	for _, mu := range []float64{0, 1e-8, 1, 10} {
		cfg := Config{Mu: mu}
		g64 := make([]float64, len(w))
		subproblemGrad(g64, m, train, nil, w, w0, cfg)
		if d := relDrift(grad32(m, train, w, w0, cfg), g64); d > 1e-5 {
			t.Fatalf("mu=%g: subproblem gradient drifted %.2e", mu, d)
		}
	}

	// Pure prox: duplicate examples with opposite labels at input zero
	// have zero data gradient everywhere except the bias, leaving the
	// prox pull as the dominant term.
	zeroX := make([]float64, 4)
	sym := []data.Example{{X: zeroX, Y: 0}, {X: zeroX, Y: 1}}
	cfg := Config{Mu: 2}
	g64 := make([]float64, len(w))
	subproblemGrad(g64, m, sym, nil, w, w0, cfg)
	if d := relDrift(grad32(m, sym, w, w0, cfg), g64); d > 1e-5 {
		t.Fatalf("prox-only gradient drifted %.2e", d)
	}
}
