package theory

import (
	"math"
	"testing"
	"testing/quick"

	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model/linear"
)

func goodParams() Params {
	return Params{Mu: 10, Gamma: 0.05, B: 1.5, K: 10, L: 1, LMinus: 0.2}
}

func TestParamsValidate(t *testing.T) {
	if err := goodParams().Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Mu = 0 },
		func(p *Params) { p.Gamma = -0.1 },
		func(p *Params) { p.Gamma = 1.1 },
		func(p *Params) { p.B = 0.5 },
		func(p *Params) { p.K = 0 },
		func(p *Params) { p.L = 0 },
		func(p *Params) { p.LMinus = -1 },
		func(p *Params) { p.Mu = 0.1; p.LMinus = 0.2 }, // mu-bar <= 0
	}
	for i, mutate := range bad {
		p := goodParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestMuBar(t *testing.T) {
	p := Params{Mu: 3, LMinus: 1}
	if got := p.MuBar(); got != 2 {
		t.Fatalf("MuBar = %g, want 2", got)
	}
}

// TestRhoPositiveInGoodRegime: exact solves (γ=0), low dissimilarity,
// large μ and K — the regime the theory says must give decrease.
func TestRhoPositiveInGoodRegime(t *testing.T) {
	p := Params{Mu: 50, Gamma: 0, B: 1.2, K: 100, L: 1, LMinus: 0}
	r, err := rho(p)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 {
		t.Fatalf("rho = %g in a benign regime, want > 0", r)
	}
}

// TestRhoNegativeUnderExtremeDissimilarity: B >> √K must kill the
// guarantee (Remark 5).
func TestRhoNegativeUnderExtremeDissimilarity(t *testing.T) {
	p := Params{Mu: 50, Gamma: 0, B: 50, K: 10, L: 1, LMinus: 0}
	r, err := rho(p)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0 {
		t.Fatalf("rho = %g despite B/sqrt(K) = %g >> 1", r, 50/math.Sqrt(10))
	}
	if remarkFiveHolds(p) {
		t.Fatal("Remark 5 claimed to hold at B=50, K=10")
	}
}

// TestRhoMonotoneInGamma: sloppier local solves (larger γ) can only shrink
// the guaranteed decrease.
func TestRhoMonotoneInGamma(t *testing.T) {
	base := Params{Mu: 50, Gamma: 0, B: 1.5, K: 100, L: 1, LMinus: 0}
	prev := math.Inf(1)
	for _, g := range []float64{0, 0.1, 0.3, 0.6, 0.9} {
		p := base
		p.Gamma = g
		r, err := rho(p)
		if err != nil {
			t.Fatal(err)
		}
		if r >= prev {
			t.Fatalf("rho not decreasing in gamma at %g: %g >= %g", g, r, prev)
		}
		prev = r
	}
}

// TestRhoMonotoneInB: more dissimilarity, weaker guarantee.
func TestRhoMonotoneInBProperty(t *testing.T) {
	f := func(seed uint8) bool {
		b1 := 1 + float64(seed%40)/10 // 1.0 .. 4.9
		b2 := b1 + 0.5
		base := Params{Mu: 80, Gamma: 0.05, K: 100, L: 1, LMinus: 0}
		pa, pb := base, base
		pa.B, pb.B = b1, b2
		r1, err1 := rho(pa)
		r2, err2 := rho(pb)
		return err1 == nil && err2 == nil && r2 < r1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRhoImprovesWithK: more participating devices tighten the variance
// terms.
func TestRhoImprovesWithK(t *testing.T) {
	base := Params{Mu: 50, Gamma: 0.05, B: 2, K: 10, L: 1, LMinus: 0}
	small, err := rho(base)
	if err != nil {
		t.Fatal(err)
	}
	base.K = 1000
	big, err := rho(base)
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("rho did not improve with K: K=10 %g, K=1000 %g", small, big)
	}
}

func TestEstimateBOnSyntheticLadder(t *testing.T) {
	// The measured B must be >= 1 and larger on Synthetic(1,1) than on
	// IID data — the empirical claim of Section 5.3.3.
	rng := frand.New(5)
	measure := func(iid bool) float64 {
		cfg := synthetic.Default(1, 1).Scaled(0.15)
		cfg.IID = iid
		fed := synthetic.Generate(cfg)
		m := linear.ForDataset(fed)
		w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.1)
		_, b := metrics.FleetDissimilarity(m, fed.Fleet(), w)
		return b
	}
	bIID, bHet := measure(true), measure(false)
	if bIID < 1-1e-9 || bHet < 1-1e-9 {
		t.Fatalf("B below 1: iid %g, het %g", bIID, bHet)
	}
	if bHet <= bIID {
		t.Fatalf("B on heterogeneous data (%g) not above IID (%g)", bHet, bIID)
	}
}

func TestEstimateLPositiveAndStable(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(0, 0).Scaled(0.15))
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	l := estimateL(m, fed, w, 4, 1e-3, frand.New(7))
	if l <= 0 || math.IsNaN(l) {
		t.Fatalf("estimateL = %g", l)
	}
	// Logistic loss curvature is bounded by ~max ‖x‖²/4 per class block;
	// the estimate must land in a plausible range, not explode.
	if l > 1e4 {
		t.Fatalf("estimateL = %g, implausibly large", l)
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(0, 0).Scaled(0.15))
	m := linear.ForDataset(fed)
	w := make([]float64, m.NumParams())
	rep, err := Analyze(m, fed, w, 10, 0.1, 10, frand.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.B < 1 || rep.L <= 0 {
		t.Fatalf("bad measured constants: %+v", rep)
	}
	if math.IsNaN(rep.Rho) {
		t.Fatal("rho is NaN")
	}
}
