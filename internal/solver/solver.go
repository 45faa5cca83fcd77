// Package solver implements the local solvers devices run on their
// subproblems.
//
// The FedProx framework is solver-agnostic (Section 3.2): a device may use
// any procedure that produces a γ-inexact solution of
//
//	h_k(w; wᵗ) = F_k(w) + (μ/2)·‖w − wᵗ‖²
//
// This package provides the solvers the paper evaluates — mini-batch SGD
// (the FedAvg solver, and the FedProx solver with the proximal gradient
// term added) and full gradient descent — plus the γ-inexactness
// measurement of Definitions 1 and 2. A configurable linear correction
// term supports the FedDane baseline (Appendix B), whose local objective
// adds ⟨∇f(wᵗ) − ∇F_k(wᵗ), w⟩ to h_k.
package solver

import (
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Config are the hyperparameters of a local solve.
type Config struct {
	// LearningRate is the SGD step size η. The paper tunes it per dataset
	// on FedAvg and reuses it for all methods.
	LearningRate float64
	// BatchSize is the mini-batch size (paper: 10).
	BatchSize int
	// Mu is the proximal coefficient μ; 0 recovers the FedAvg subproblem.
	Mu float64
	// Correction, when non-nil, is a constant vector added to every
	// stochastic gradient (the FedDane gradient-correction term). It must
	// have the model's parameter length.
	Correction []float64
	// Precision selects the arithmetic width SGD, GDSolver and Gamma
	// compute at. Their signatures are float64 either way: under
	// tensor.F32 they narrow their inputs, run the same generic body at
	// float32 and widen the result, provided the model is a model.Model32
	// and Correction is nil (FedDane stays full-width); otherwise they
	// run at float64.
	Precision tensor.Precision
}

// narrow reports whether a solve of m under c runs at float32.
func (c Config) narrow(m model.Model) bool {
	_, ok := m.(model.Model32)
	return ok && c.Precision == tensor.F32 && c.Correction == nil
}

// narrowed returns train's features as a float32 solve of m reads them:
// every X converted once per solve into panel (model.Narrow), and rows, a
// header per example into it in train order, pooled with room for spare
// more. The caller recycles both. An X of the wrong length panics here,
// before anything is stepped. A float64 solve passes nil rows instead.
func narrowed(m model.Model, train []data.Example, spare int) (rows [][]float32, panel []float32) {
	return model.Narrow(rowPool.get(len(train) + spare)[:0], train, m.(model.Model32).InputDim())
}

// widened returns v at float64 in a pooled vector and recycles v.
func widened(v []float32) []float64 {
	out := tensor.Converted[float64](v)
	tensor.PutVec(v)
	return out
}

// SGD runs epochs passes of mini-batch SGD on the device subproblem
// h(w; w0) starting from w0 and returns the resulting parameters. Batch
// order is drawn from rng, so fixing rng fixes mini-batch order across
// compared runs, per the paper's protocol.
//
// Each step takes w ← w − η·(∇F(w; batch) + μ·(w − w0) + correction).
//
// The returned slice is exclusively the caller's: it may come from the
// tensor pool, and callers that do not retain it should hand it back
// with tensor.PutVec.
func SGD(m model.Model, train []data.Example, w0 []float64, cfg Config, epochs int, rng *frand.Source) []float64 {
	if epochs < 0 {
		panic("solver: negative epochs")
	}
	if cfg.BatchSize <= 0 {
		panic("data: non-positive batch size")
	}
	if cfg.narrow(m) {
		rows, panel := narrowed(m, train, cfg.BatchSize)
		n0 := tensor.Converted[float32](w0)
		w := sgd(m, train, rows, n0, cfg, epochs, rng)
		rowPool.put(rows)
		tensor.PutVec(panel)
		tensor.PutVec(n0)
		return widened(w)
	}
	return sgd(m, train, nil, w0, cfg, epochs, rng)
}

func sgd[T tensor.Float](m model.Model, train []data.Example, rows [][]float32, w0 []T, cfg Config, epochs int, rng *frand.Source) []T {
	w := tensor.GetVec[T](len(w0))
	copy(w, w0)
	grad := tensor.GetVec[T](m.NumParams())
	batch := batchPool.get(cfg.BatchSize)[:0]
	xs := rows[len(rows):] // a float32 batch's rows, in the room left after rows
	perm := permPool.get(len(train))
	// Batch windows are sliced straight off the epoch permutation —
	// identical draws and batches as data.Batches, without materializing
	// the per-epoch slice-of-slices. The permutation buffer is pooled:
	// identity-fill + Shuffle consumes exactly the draws rng.Perm would.
	for e := 0; e < epochs; e++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(perm)
		for start := 0; start < len(train); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(train) {
				end = len(train)
			}
			batch, xs = batch[:0], xs[:0]
			for _, i := range perm[start:end] {
				batch = append(batch, train[i])
				if rows != nil {
					xs = append(xs, rows[i])
				}
			}
			model.Grad(m, grad, w, batch, xs)
			applyStep(w, grad, w0, cfg)
		}
	}
	permPool.put(perm)
	batchPool.put(batch)
	tensor.PutVec(grad)
	return w
}

func gd[T tensor.Float](m model.Model, train []data.Example, rows [][]float32, w0 []T, cfg Config, steps int) []T {
	w := tensor.GetVec[T](len(w0))
	copy(w, w0)
	grad := tensor.GetVec[T](m.NumParams())
	for s := 0; s < steps; s++ {
		model.Grad(m, grad, w, train, rows)
		applyStep(w, grad, w0, cfg)
	}
	tensor.PutVec(grad)
	return w
}

// correction returns cfg.Correction at width T. It is nil at float32:
// narrow keeps a corrected solve at full width.
func correction[T tensor.Float](cfg Config) []T {
	corr, _ := any(cfg.Correction).([]T)
	return corr
}

// applyStep performs w ← w − η·(grad + μ(w − w0) + correction) in place.
func applyStep[T tensor.Float](w, grad, w0 []T, cfg Config) {
	eta := T(cfg.LearningRate)
	mu := T(cfg.Mu)
	corr := correction[T](cfg)
	if corr == nil {
		tensor.ProxStep(w, grad, w0, eta, mu)
		return
	}
	for i := range w {
		w[i] -= eta * (grad[i] + mu*(w[i]-w0[i]) + corr[i])
	}
}

// subproblemGrad writes ∇h(w; w0) = ∇F(w) + μ(w − w0) + correction over the
// full local training set, with its float32 rows, into dst and returns the
// subproblem loss F(w) + (μ/2)‖w − w0‖² (+ ⟨correction, w⟩ when present).
func subproblemGrad[T tensor.Float](dst []T, m model.Model, train []data.Example, rows [][]float32, w, w0 []T, cfg Config) T {
	loss := model.Grad(m, dst, w, train, rows)
	if mu := T(cfg.Mu); mu != 0 {
		for i := range dst {
			dst[i] += mu * (w[i] - w0[i])
		}
		loss += 0.5 * mu * tensor.SqDist(w, w0)
	}
	if corr := correction[T](cfg); corr != nil {
		tensor.Axpy(1, corr, dst)
		loss += tensor.Dot(corr, w)
	}
	return loss
}

// Gamma measures the achieved inexactness of a local solution w relative
// to the starting point w0 (Definitions 1 and 2):
//
//	γ = ‖∇h(w; w0)‖ / ‖∇h(w0; w0)‖
//
// A device that did no work returns γ = 1; an exact minimizer returns
// γ = 0. When the starting point is already stationary (denominator ≈ 0)
// Gamma returns 0, matching the convention that no further progress is
// required there. Norms are finished in float64 at either width, so the
// denominator guard keeps one scale.
func Gamma(m model.Model, train []data.Example, w, w0 []float64, cfg Config) float64 {
	if cfg.narrow(m) {
		rows, panel := narrowed(m, train, 0)
		nw, nw0 := tensor.Converted[float32](w), tensor.Converted[float32](w0)
		g := gamma(m, train, rows, nw, nw0, cfg)
		rowPool.put(rows)
		tensor.PutVec(panel)
		tensor.PutVec(nw)
		tensor.PutVec(nw0)
		return g
	}
	return gamma(m, train, nil, w, w0, cfg)
}

func gamma[T tensor.Float](m model.Model, train []data.Example, rows [][]float32, w, w0 []T, cfg Config) float64 {
	grad := tensor.GetVec[T](m.NumParams())
	defer tensor.PutVec(grad)
	subproblemGrad(grad, m, train, rows, w0, w0, cfg)
	denom := tensor.Norm2(grad)
	if denom < 1e-12 {
		return 0
	}
	subproblemGrad(grad, m, train, rows, w, w0, cfg)
	return tensor.Norm2(grad) / denom
}
