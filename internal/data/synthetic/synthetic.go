// Package synthetic implements the paper's synthetic federated data
// generator (Section 5.1, Appendix C.1).
//
// For each device k the generator draws a local softmax model and a local
// input distribution:
//
//	y = argmax(softmax(W_k·x + b_k)),  x ∈ R^60, W_k ∈ R^{10×60}, b_k ∈ R^10
//	W_k ~ N(u_k, 1),  b_k ~ N(u_k, 1),  u_k ~ N(0, α)
//	x_k ~ N(v_k, Σ),  Σ diagonal with Σ_jj = j^{-1.2}
//	(v_k)_j ~ N(B_k, 1),  B_k ~ N(0, β)
//
// α controls how much local models differ from each other; β controls how
// much local data distributions differ. Synthetic(0,0), Synthetic(0.5,0.5)
// and Synthetic(1,1) form the paper's increasing-heterogeneity ladder.
// For the IID dataset the same W, b ~ N(0,1) are shared by every device and
// every device draws x ~ N(0, Σ).
//
// There are 30 devices and the number of samples per device follows a
// power law.
package synthetic

import (
	"fmt"

	"fedprox/internal/data"
)

// Config parameterizes the generator. The zero value is not useful; start
// from Default.
type Config struct {
	// Alpha controls model heterogeneity (α in the paper).
	Alpha float64
	// Beta controls data heterogeneity (β in the paper).
	Beta float64
	// IID, when true, ignores Alpha/Beta and generates the Synthetic-IID
	// dataset: one shared model, one shared input distribution.
	IID bool
	// Devices is the number of devices (paper: 30).
	Devices int
	// Dim is the input dimension (paper: 60).
	Dim int
	// Classes is the number of labels (paper: 10).
	Classes int
	// MinSamples and MaxSamples bound the power-law sample allocation.
	MinSamples, MaxSamples int
	// PowerAlpha is the power-law exponent for sample allocation.
	PowerAlpha float64
	// TrainFrac is the per-device train split (paper: 0.8).
	TrainFrac float64
	// Seed drives all randomness.
	Seed uint64
}

// Default returns the paper-scale configuration for Synthetic(α, β).
func Default(alpha, beta float64) Config {
	return Config{
		Alpha:      alpha,
		Beta:       beta,
		Devices:    30,
		Dim:        60,
		Classes:    10,
		MinSamples: 50,
		MaxSamples: 4000,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       42,
	}
}

// DefaultIID returns the paper-scale configuration for Synthetic-IID.
func DefaultIID() Config {
	c := Default(0, 0)
	c.IID = true
	return c
}

// Scaled returns a copy of c with per-device sample bounds scaled by f
// (floored at 10 samples). Experiments use this to trade fidelity for
// runtime without changing the heterogeneity structure.
func (c Config) Scaled(f float64) Config {
	c.MinSamples = data.ScaleCount(c.MinSamples, f, 10)
	c.MaxSamples = data.ScaleCount(c.MaxSamples, f, c.MinSamples)
	return c
}

// Name returns the dataset's display name, matching the paper's figures.
func (c Config) Name() string {
	if c.IID {
		return "Synthetic-IID"
	}
	return fmt.Sprintf("Synthetic(%g,%g)", c.Alpha, c.Beta)
}

// Generate builds the federated dataset described by c: the lazy fleet's
// shards, none released, so each keeps storage of its own.
func Generate(c Config) *data.Federated { return data.Generate(NewFleet(c)) }
