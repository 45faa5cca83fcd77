package core

import (
	"runtime"
	"testing"
)

// TestWithDefaultsValidates is the normalization contract promised on
// WithDefaults: from any valid base, zeroing the optional knobs and
// normalizing produces a Config that Validate accepts, with every
// zero-selects-default rule resolved to its documented value.
func TestWithDefaultsValidates(t *testing.T) {
	cases := []struct {
		name string
		base func() Config
	}{
		{"fedavg", func() Config { return FedAvg(10, 5, 3, 0.01) }},
		{"fedprox", func() Config { return FedProx(10, 5, 3, 0.01, 1) }},
		{"zeroed-knobs", func() Config {
			c := FedProx(10, 5, 3, 0.01, 1)
			c.EvalEvery = 0
			c.MuStep = 0
			c.MuPatience = 0
			c.Parallelism = 0
			return c
		}},
		{"negative-knobs", func() Config {
			c := FedAvg(10, 5, 3, 0.01)
			c.EvalEvery = -1
			c.Parallelism = -4
			return c
		}},
		{"async", func() Config {
			c := FedProx(10, 5, 3, 0.01, 1)
			c.Async = AsyncConfig{Mode: AsyncTotal}
			c.VTime = VTimeConfig{Model: vtimeModel(20, 1)}
			return c
		}},
		{"default-config", paperBaseline},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.base().WithDefaults()
			if err := c.Validate(); err != nil {
				t.Fatalf("Validate rejects WithDefaults output: %v", err)
			}
			if c.EvalEvery < 1 {
				t.Errorf("EvalEvery not defaulted: %d", c.EvalEvery)
			}
			if c.MuStep == 0 || c.MuPatience == 0 {
				t.Errorf("mu controller knobs not defaulted: step %g patience %d", c.MuStep, c.MuPatience)
			}
			if c.Parallelism < 1 {
				t.Errorf("Parallelism not defaulted: %d", c.Parallelism)
			}
			// Idempotence: normalizing twice changes nothing.
			if again := c.WithDefaults(); again != c {
				t.Error("WithDefaults is not idempotent")
			}
		})
	}
}

// TestWithDefaultsResolvedValues pins the documented defaults.
func TestWithDefaultsResolvedValues(t *testing.T) {
	c := FedAvg(10, 5, 3, 0.01)
	c.EvalEvery, c.MuStep, c.MuPatience, c.Parallelism = 0, 0, 0, 0
	d := c.WithDefaults()
	if d.EvalEvery != 1 {
		t.Errorf("EvalEvery = %d, want 1", d.EvalEvery)
	}
	if d.MuStep != 0.1 {
		t.Errorf("MuStep = %g, want 0.1", d.MuStep)
	}
	if d.MuPatience != 5 {
		t.Errorf("MuPatience = %d, want 5", d.MuPatience)
	}
	if d.Parallelism != runtime.GOMAXPROCS(0) {
		t.Errorf("Parallelism = %d, want GOMAXPROCS %d", d.Parallelism, runtime.GOMAXPROCS(0))
	}
	// Set knobs pass through untouched.
	c.EvalEvery, c.MuStep, c.MuPatience, c.Parallelism = 3, 0.5, 2, 2
	d = c.WithDefaults()
	if d.EvalEvery != 3 || d.MuStep != 0.5 || d.MuPatience != 2 || d.Parallelism != 2 {
		t.Errorf("explicit knobs rewritten: %+v", d)
	}
}

// paperBaseline is the paper's baseline configuration: FedAvg at the
// synthetic-suite scale (200 rounds, 10 clients per round, 20 local
// epochs, lr 0.01), normalized.
func paperBaseline() Config { return FedAvg(200, 10, 20, 0.01).WithDefaults() }

// TestDefaultConfigIsPaperBaseline: the paper's baseline validates as-is
// and is Algorithm 1 — μ = 0, stragglers dropped, batch size 10.
func TestDefaultConfigIsPaperBaseline(t *testing.T) {
	c := paperBaseline()
	if err := c.Validate(); err != nil {
		t.Fatalf("the paper baseline does not validate: %v", err)
	}
	if c.Mu != 0 || c.Straggler != DropStragglers || c.BatchSize != 10 {
		t.Errorf("FedAvg is not Algorithm 1: %+v", c)
	}
}
