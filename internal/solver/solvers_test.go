package solver

import (
	"testing"

	"fedprox/internal/frand"
	"fedprox/internal/model/linear"
	"fedprox/internal/tensor"
)

func allSolvers() []LocalSolver {
	return []LocalSolver{
		SGDSolver{},
		GDSolver{StepsPerEpoch: 3},
		MomentumSolver{Beta: 0.9},
		AdagradSolver{},
		AdamSolver{},
	}
}

func TestSolverNamesDistinct(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range allSolvers() {
		name := s.Name()
		if name == "" || seen[name] {
			t.Fatalf("solver name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

// TestAllSolversReduceLoss is the framework's solver-agnosticism contract:
// every local solver must make progress on the local subproblem.
func TestAllSolversReduceLoss(t *testing.T) {
	rng := frand.New(41)
	m := linear.New(4, 2)
	train := trainSet(rng, 80)
	w0 := make([]float64, m.NumParams())
	before := m.Loss(w0, train)
	for _, s := range allSolvers() {
		lr := 0.2
		if s.Name() == "adagrad" || s.Name() == "adam" {
			lr = 0.05 // adaptive methods want smaller nominal rates
		}
		cfg := Config{LearningRate: lr, BatchSize: 10}
		w := s.Solve(m, train, w0, cfg, 8, frand.New(5))
		after := m.Loss(w, train)
		if after >= before {
			t.Errorf("%s: loss %g -> %g (no progress)", s.Name(), before, after)
		}
	}
}

// TestAllSolversRespectProx: for every solver, adding μ must pull the
// solution toward the starting point.
func TestAllSolversRespectProx(t *testing.T) {
	rng := frand.New(43)
	m := linear.New(4, 2)
	train := trainSet(rng, 80)
	w0 := make([]float64, m.NumParams())
	for _, s := range allSolvers() {
		lr := 0.1
		if s.Name() == "adagrad" || s.Name() == "adam" {
			lr = 0.05
		}
		dist := func(mu float64) float64 {
			cfg := Config{LearningRate: lr, BatchSize: 10, Mu: mu}
			w := s.Solve(m, train, w0, cfg, 10, frand.New(5))
			return tensor.SqDist(w, w0)
		}
		free, prox := dist(0), dist(5)
		if prox >= free {
			t.Errorf("%s: mu=5 distance %g not below mu=0 distance %g", s.Name(), prox, free)
		}
	}
}

func TestAllSolversReturnFreshVector(t *testing.T) {
	rng := frand.New(47)
	m := linear.New(4, 2)
	train := trainSet(rng, 20)
	w0 := rng.NormVec(make([]float64, m.NumParams()), 0, 1)
	orig := tensor.Clone(w0)
	for _, s := range allSolvers() {
		w := s.Solve(m, train, w0, Config{LearningRate: 0.1, BatchSize: 5}, 2, frand.New(5))
		for i := range w0 {
			if w0[i] != orig[i] {
				t.Fatalf("%s mutated the input parameters", s.Name())
			}
		}
		w[0] = 1e9
		if w0[0] == 1e9 {
			t.Fatalf("%s returned the input slice", s.Name())
		}
	}
}

func TestSolversDeterministic(t *testing.T) {
	rng := frand.New(53)
	m := linear.New(4, 2)
	train := trainSet(rng, 40)
	w0 := make([]float64, m.NumParams())
	for _, s := range allSolvers() {
		cfg := Config{LearningRate: 0.1, BatchSize: 7, Mu: 0.5}
		a := s.Solve(m, train, w0, cfg, 3, frand.New(77))
		b := s.Solve(m, train, w0, cfg, 3, frand.New(77))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s not deterministic under equal seeds", s.Name())
			}
		}
	}
}

func TestMomentumAcceleratesOnConvex(t *testing.T) {
	rng := frand.New(59)
	m := linear.New(4, 2)
	train := trainSet(rng, 80)
	w0 := make([]float64, m.NumParams())
	cfg := Config{LearningRate: 0.05, BatchSize: 80} // full batch: isolate dynamics
	plain := SGDSolver{}.Solve(m, train, w0, cfg, 10, frand.New(5))
	mom := MomentumSolver{Beta: 0.9}.Solve(m, train, w0, cfg, 10, frand.New(5))
	if m.Loss(mom, train) >= m.Loss(plain, train) {
		t.Fatalf("momentum (%g) no faster than plain SGD (%g) on convex full-batch",
			m.Loss(mom, train), m.Loss(plain, train))
	}
}

func TestGDSolverStepsPerEpochDefault(t *testing.T) {
	rng := frand.New(61)
	m := linear.New(4, 2)
	train := trainSet(rng, 30)
	w0 := make([]float64, m.NumParams())
	cfg := Config{LearningRate: 0.1, BatchSize: 10}
	a := GDSolver{}.Solve(m, train, w0, cfg, 4, nil)
	b := GDSolver{StepsPerEpoch: 4}.Solve(m, train, w0, cfg, 1, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("GDSolver default is not one descent step per epoch")
		}
	}
}

func TestCorrectionRespectedByAllSolvers(t *testing.T) {
	rng := frand.New(67)
	m := linear.New(4, 2)
	train := trainSet(rng, 30)
	w0 := make([]float64, m.NumParams())
	corr := rng.NormVec(make([]float64, m.NumParams()), 0, 1)
	for _, s := range allSolvers() {
		cfg := Config{LearningRate: 0.05, BatchSize: 10}
		plain := s.Solve(m, train, w0, cfg, 2, frand.New(5))
		cfg.Correction = corr
		corrected := s.Solve(m, train, w0, cfg, 2, frand.New(5))
		same := true
		for i := range plain {
			if plain[i] != corrected[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s ignored the correction term", s.Name())
		}
	}
}

func TestNegativeEpochsPanicAcrossSolvers(t *testing.T) {
	m := linear.New(2, 2)
	for _, s := range allSolvers() {
		if s.Name() == "gd" {
			continue // gd takes a step count derived from epochs*per
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative epochs did not panic", s.Name())
				}
			}()
			s.Solve(m, nil, make([]float64, m.NumParams()), Config{LearningRate: 1, BatchSize: 1}, -1, frand.New(1))
		}()
	}
}
