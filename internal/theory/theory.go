// Package theory implements the paper's convergence analysis (Section 4)
// as executable code: the sufficient-decrease coefficient ρ of Theorem 4,
// the Remark 5 conditions, and empirical estimators for the quantities the
// theory is stated in terms of (B-dissimilarity, Lipschitz smoothness).
//
// The point of this module is the paper's own validation loop
// (Section 5.3.3): the theory predicts that smaller dissimilarity means
// better convergence, and the dissimilarity metric can be measured on
// real runs. Tests and the "theory" experiment check the predicted
// inequalities against simulated trajectories.
package theory

import (
	"fmt"
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Params are the problem constants the analysis is stated in terms of.
type Params struct {
	// Mu is the proximal coefficient μ.
	Mu float64
	// Gamma is the local inexactness γ ∈ [0, 1] (Definition 1).
	Gamma float64
	// B is the dissimilarity bound (Definition 3 / Assumption 1).
	B float64
	// K is the number of devices selected per round.
	K int
	// L is the Lipschitz-smoothness constant of the local objectives.
	L float64
	// LMinus is L⁻ ≥ 0, the bound ∇²F_k ⪰ −L⁻·I on local non-convexity
	// (0 for convex objectives).
	LMinus float64
}

// MuBar returns μ̄ = μ − L⁻, the strong-convexity modulus of the local
// subproblem h_k. The analysis requires μ̄ > 0.
func (p Params) MuBar() float64 { return p.Mu - p.LMinus }

// Validate reports the first structural problem with the constants.
func (p Params) Validate() error {
	switch {
	case p.Mu <= 0:
		return fmt.Errorf("theory: mu must be positive, got %g", p.Mu)
	case p.Gamma < 0 || p.Gamma > 1:
		return fmt.Errorf("theory: gamma must be in [0,1], got %g", p.Gamma)
	case p.B < 1:
		return fmt.Errorf("theory: B is at least 1 by construction, got %g", p.B)
	case p.K <= 0:
		return fmt.Errorf("theory: K must be positive, got %d", p.K)
	case p.L <= 0:
		return fmt.Errorf("theory: L must be positive, got %g", p.L)
	case p.LMinus < 0:
		return fmt.Errorf("theory: L- must be non-negative, got %g", p.LMinus)
	case p.MuBar() <= 0:
		return fmt.Errorf("theory: mu-bar = mu - L- = %g must be positive", p.MuBar())
	}
	return nil
}

// rho evaluates the sufficient-decrease coefficient of Theorem 4:
//
//	ρ = 1/μ − γB/μ − B(1+γ)√2/(μ̄√K) − LB(1+γ)/(μ̄μ)
//	    − L(1+γ)²B²/(2μ̄²) − LB²(1+γ)²(2√(2K)+2)/(μ̄²K)
//
// Theorem 4 guarantees E[f(wᵗ⁺¹)] ≤ f(wᵗ) − ρ‖∇f(wᵗ)‖² whenever ρ > 0.
func rho(p Params) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	mu, muBar := p.Mu, p.MuBar()
	g, b, l := p.Gamma, p.B, p.L
	k := float64(p.K)
	one := 1 / mu
	t1 := g * b / mu
	t2 := b * (1 + g) * math.Sqrt2 / (muBar * math.Sqrt(k))
	t3 := l * b * (1 + g) / (muBar * mu)
	t4 := l * (1 + g) * (1 + g) * b * b / (2 * muBar * muBar)
	t5 := l * b * b * (1 + g) * (1 + g) / (muBar * muBar * k) * (2*math.Sqrt(2*k) + 2)
	return one - t1 - t2 - t3 - t4 - t5, nil
}

// remarkFiveHolds reports the Remark 5 necessary structure for ρ > 0:
// γB < 1 and B/√K < 1. These quantify the trade-off between dissimilarity
// and the algorithm parameters.
func remarkFiveHolds(p Params) bool {
	return p.Gamma*p.B < 1 && p.B/math.Sqrt(float64(p.K)) < 1
}

// estimateL estimates the Lipschitz-smoothness constant of the global
// objective by probing gradient differences along random directions:
//
//	L ≳ max over probes of ‖∇f(w + δu) − ∇f(w)‖ / δ
//
// The estimate is a lower bound that tightens with more probes; it is the
// standard practical stand-in for an analytic constant.
func estimateL(m model.Model, fed *data.Federated, w []float64, probes int, delta float64, rng *frand.Source) float64 {
	if probes <= 0 || delta <= 0 {
		panic("theory: probes and delta must be positive")
	}
	n := m.NumParams()
	g0 := make([]float64, n)
	globalGrad(m, fed, w, g0)
	g1 := make([]float64, n)
	wp := make([]float64, n)
	best := 0.0
	for p := 0; p < probes; p++ {
		u := rng.NormVec(make([]float64, n), 0, 1)
		tensor.Scale(1/tensor.Norm2(u), u)
		tensor.AddScaled(wp, w, delta, u)
		globalGrad(m, fed, wp, g1)
		tensor.Sub(g1, g1, g0)
		if est := tensor.Norm2(g1) / delta; est > best {
			best = est
		}
	}
	return best
}

// globalGrad writes ∇f(w) = Σ p_k ∇F_k(w) into dst.
func globalGrad(m model.Model, fed *data.Federated, w, dst []float64) {
	weights := fed.Weights()
	tensor.Zero(dst)
	g := make([]float64, m.NumParams())
	for k, s := range fed.Shards {
		m.Grad(g, w, s.Train)
		tensor.Axpy(weights[k], g, dst)
	}
}

// SufficientDecreaseReport compares a run's observed per-round decrease
// with Theorem 4's bound at measured constants.
type SufficientDecreaseReport struct {
	// Rho is the theoretical coefficient at the measured constants.
	Rho float64
	// Remark5 reports whether the Remark 5 conditions held.
	Remark5 bool
	// B and L are the measured constants used.
	B, L float64
}

// Analyze measures B and L at the given parameters and evaluates ρ for the
// run configuration. It is the entry point the "theory" experiment uses.
func Analyze(m model.Model, fed *data.Federated, w []float64, mu, gamma float64, k int, rng *frand.Source) (SufficientDecreaseReport, error) {
	_, b := metrics.FleetDissimilarity(m, fed.Fleet(), w)
	if b < 1 {
		b = 1 // Definition 3: B(w) >= 1 up to measurement noise
	}
	l := estimateL(m, fed, w, 5, 1e-3, rng)
	if l <= 0 {
		l = 1e-6
	}
	p := Params{Mu: mu, Gamma: gamma, B: b, K: k, L: l, LMinus: 0}
	r, err := rho(p)
	if err != nil {
		return SufficientDecreaseReport{}, err
	}
	return SufficientDecreaseReport{
		Rho:     r,
		Remark5: remarkFiveHolds(p),
		B:       b,
		L:       l,
	}, nil
}
