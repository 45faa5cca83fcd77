package privacy_test

import (
	"math"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
	"fedprox/internal/privacy"
)

func TestApplyDeterministic(t *testing.T) {
	m := &privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.1, Seed: 9}
	w0 := []float64{0, 0, 0}
	a := []float64{5, 0, 0}
	b := []float64{5, 0, 0}
	m.Apply(a, w0, 3, 7)
	m.Apply(b, w0, 3, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Apply not deterministic in (round, device)")
		}
	}
	c := []float64{5, 0, 0}
	m.Apply(c, w0, 3, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different devices received identical noise")
	}
}

func TestApplyZeroConfigIsClipOnlyOrIdentity(t *testing.T) {
	w0 := []float64{0, 0}
	w := []float64{3, 4}
	id := &privacy.Mechanism{}
	id.Apply(w, w0, 0, 0)
	if w[0] != 3 || w[1] != 4 {
		t.Fatalf("zero mechanism modified the update: %v", w)
	}
}

func TestNoiseStatistics(t *testing.T) {
	m := &privacy.Mechanism{NoiseStd: 0.5, Seed: 3}
	const n = 20000
	w0 := make([]float64, n)
	w := make([]float64, n)
	m.Apply(w, w0, 0, 0)
	mean, sq := 0.0, 0.0
	for _, v := range w {
		mean += v
		sq += v * v
	}
	mean /= n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean) > 0.02 || math.Abs(std-0.5) > 0.02 {
		t.Fatalf("noise stats: mean %g std %g, want 0 / 0.5", mean, std)
	}
}

func TestValidate(t *testing.T) {
	if err := (&privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.1}).Validate(); err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]privacy.Mechanism{
		"negative clip":  {ClipNorm: -1},
		"NaN clip":       {ClipNorm: math.NaN()},
		"infinite clip":  {ClipNorm: math.Inf(1)},
		"negative noise": {NoiseStd: -1},
		"NaN noise":      {NoiseStd: math.NaN()},
		"infinite noise": {NoiseStd: math.Inf(1)},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestCoreIntegration: a private FedProx run trains (noise slows but does
// not break convergence at modest σ), and noise-free clipping with a huge
// bound reproduces the unprotected run exactly.
func TestCoreIntegration(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	base := core.FedProx(10, 5, 3, 0.01, 1)
	base.EvalEvery = 5

	plain, err := core.Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}

	huge := base
	huge.Privacy = &privacy.Mechanism{ClipNorm: 1e9} // no-op clip, no noise
	same, err := core.Run(mdl, fed, huge)
	if err != nil {
		t.Fatal(err)
	}
	if same.Final().TrainLoss != plain.Final().TrainLoss {
		t.Fatal("no-op privacy mechanism changed the trajectory")
	}

	private := base
	private.Privacy = &privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.001, Seed: 5}
	hp, err := core.Run(mdl, fed, private)
	if err != nil {
		t.Fatal(err)
	}
	if hp.Final().TrainLoss >= hp.Points[0].TrainLoss {
		t.Fatalf("private run made no progress: %g -> %g",
			hp.Points[0].TrainLoss, hp.Final().TrainLoss)
	}
	if hp.Final().TrainLoss == plain.Final().TrainLoss {
		t.Fatal("noise had no effect at all")
	}
}

func TestCoreRejectsInvalidMechanism(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(2, 2, 1, 0.01, 0)
	cfg.Privacy = &privacy.Mechanism{ClipNorm: -1}
	if _, err := core.Run(mdl, fed, cfg); err == nil {
		t.Fatal("invalid mechanism accepted")
	}
}
