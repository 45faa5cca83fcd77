package solver

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// LocalSolver abstracts the optimizer a device runs on its subproblem.
// The FedProx framework is explicitly solver-agnostic — "the use of any
// local solver" is one of the four conditions its analysis covers
// (Section 3.2) — so the federated core accepts any implementation.
//
// Solve must return a fresh parameter vector (never w0 itself) after
// running `epochs` passes over train on the subproblem
// h(w; w0) = F(w) + (μ/2)‖w − w0‖² (+ ⟨correction, w⟩), drawing batch
// order from rng. Implementations must be safe for concurrent use: any
// per-solve state lives in Solve's frame.
type LocalSolver interface {
	// Name identifies the solver in experiment labels.
	Name() string
	// Solve runs the local optimization and returns the new parameters.
	Solve(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64
}

// HonoursPrecision reports whether s solves at Config.Precision. SGD and
// GDSolver run the width-generic bodies; every other solver computes in
// float64 whatever the config says, so the device runtime refuses to
// pair one with an f32 deployment.
func HonoursPrecision(s LocalSolver) bool {
	switch s.(type) {
	case SGDSolver, GDSolver:
		return true
	}
	return false
}

// SGDSolver is plain mini-batch SGD — the paper's local solver for both
// FedAvg and FedProx ("we employ SGD as a local solver for FedProx, to
// draw a fair comparison with FedAvg").
type SGDSolver struct{}

// Name implements LocalSolver.
func (SGDSolver) Name() string { return "sgd" }

// Solve implements LocalSolver.
func (SGDSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64 {
	return SGD(m, train, w0, cfg, epochs, rng)
}

// GDSolver is full-batch gradient descent on the device subproblem with
// StepsPerEpoch descent steps per nominal epoch, the deterministic solver
// used to exercise γ-inexactness bounds exactly.
type GDSolver struct {
	// StepsPerEpoch converts the epoch budget into descent steps; 0 means
	// 1 step per epoch.
	StepsPerEpoch int
}

// Name implements LocalSolver.
func (s GDSolver) Name() string { return "gd" }

// Solve implements LocalSolver.
func (s GDSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64 {
	per := s.StepsPerEpoch
	if per <= 0 {
		per = 1
	}
	if cfg.narrow(m) {
		rows, panel := narrowed(m, train, 0)
		n0 := tensor.Converted[float32](w0)
		w := gd(m, train, rows, n0, cfg, epochs*per)
		rowPool.put(rows)
		tensor.PutVec(panel)
		tensor.PutVec(n0)
		return widened(w)
	}
	return gd(m, train, nil, w0, cfg, epochs*per)
}

// MomentumSolver is SGD with classical (heavy-ball) momentum.
type MomentumSolver struct {
	// Beta is the momentum coefficient (typically 0.9).
	Beta float64
}

// Name implements LocalSolver.
func (s MomentumSolver) Name() string { return "momentum" }

// Solve implements LocalSolver.
func (s MomentumSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64 {
	if epochs < 0 {
		panic("solver: negative epochs")
	}
	w := tensor.Clone(w0)
	grad := make([]float64, m.NumParams())
	vel := make([]float64, m.NumParams())
	batch := make([]data.Example, 0, cfg.BatchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range data.Batches(len(train), cfg.BatchSize, rng) {
			batch = gather(batch, train, idx)
			m.Grad(grad, w, batch)
			for i := range w {
				g := grad[i] + cfg.Mu*(w[i]-w0[i])
				if cfg.Correction != nil {
					g += cfg.Correction[i]
				}
				vel[i] = s.Beta*vel[i] + g
				w[i] -= cfg.LearningRate * vel[i]
			}
		}
	}
	return w
}

// AdagradSolver is SGD with per-coordinate Adagrad step-size adaptation.
type AdagradSolver struct {
	// Eps guards the denominator; 0 selects 1e-8.
	Eps float64
}

// Name implements LocalSolver.
func (s AdagradSolver) Name() string { return "adagrad" }

// Solve implements LocalSolver.
func (s AdagradSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64 {
	if epochs < 0 {
		panic("solver: negative epochs")
	}
	eps := s.Eps
	if eps == 0 {
		eps = 1e-8
	}
	w := tensor.Clone(w0)
	grad := make([]float64, m.NumParams())
	acc := make([]float64, m.NumParams())
	batch := make([]data.Example, 0, cfg.BatchSize)
	for e := 0; e < epochs; e++ {
		for _, idx := range data.Batches(len(train), cfg.BatchSize, rng) {
			batch = gather(batch, train, idx)
			m.Grad(grad, w, batch)
			for i := range w {
				g := grad[i] + cfg.Mu*(w[i]-w0[i])
				if cfg.Correction != nil {
					g += cfg.Correction[i]
				}
				acc[i] += g * g
				w[i] -= cfg.LearningRate * g / (math.Sqrt(acc[i]) + eps)
			}
		}
	}
	return w
}

// AdamSolver is SGD with Adam's bias-corrected first and second moment
// adaptation.
type AdamSolver struct {
	// Beta1, Beta2 are the moment decay rates; zeros select 0.9 / 0.999.
	Beta1, Beta2 float64
	// Eps guards the denominator; 0 selects 1e-8.
	Eps float64
}

// Name implements LocalSolver.
func (s AdamSolver) Name() string { return "adam" }

// Solve implements LocalSolver.
func (s AdamSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64 {
	if epochs < 0 {
		panic("solver: negative epochs")
	}
	b1, b2, eps := s.Beta1, s.Beta2, s.Eps
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	w := tensor.Clone(w0)
	grad := make([]float64, m.NumParams())
	m1 := make([]float64, m.NumParams())
	m2 := make([]float64, m.NumParams())
	batch := make([]data.Example, 0, cfg.BatchSize)
	t := 0
	p1, p2 := 1.0, 1.0 // running powers of b1, b2 for bias correction
	for e := 0; e < epochs; e++ {
		for _, idx := range data.Batches(len(train), cfg.BatchSize, rng) {
			batch = gather(batch, train, idx)
			m.Grad(grad, w, batch)
			t++
			p1 *= b1
			p2 *= b2
			for i := range w {
				g := grad[i] + cfg.Mu*(w[i]-w0[i])
				if cfg.Correction != nil {
					g += cfg.Correction[i]
				}
				m1[i] = b1*m1[i] + (1-b1)*g
				m2[i] = b2*m2[i] + (1-b2)*g*g
				mhat := m1[i] / (1 - p1)
				vhat := m2[i] / (1 - p2)
				w[i] -= cfg.LearningRate * mhat / (math.Sqrt(vhat) + eps)
			}
		}
	}
	return w
}

// gather copies the indexed examples into dst (reusing its storage).
func gather(dst, train []data.Example, idx []int) []data.Example {
	dst = dst[:0]
	for _, i := range idx {
		dst = append(dst, train[i])
	}
	return dst
}
