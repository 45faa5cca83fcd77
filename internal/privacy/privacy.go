// Package privacy implements the update-level privacy mechanism of
// DP-federated learning: each device's model delta is L2-clipped and
// Gaussian noise is added before upload.
//
// The paper's footnote 1 notes that differential privacy composes
// naturally with FedProx because the framework only alters the local
// objective. This package is that composition point: core.Run applies a
// Mechanism (when configured) to every device update between the local
// solve and aggregation, so any method built on the core — FedAvg,
// FedProx, FedDane — inherits it unchanged.
//
// The noise calibration (σ per clip bound per target ε, δ) is left to the
// caller; this package provides the mechanism, deterministic per
// (seed, round, device) so runs stay reproducible.
package privacy

import (
	"fmt"
	"math"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Mechanism clips and noises device updates.
type Mechanism struct {
	// ClipNorm is the L2 bound on the update delta w_k − wᵗ; 0 disables
	// clipping.
	ClipNorm float64
	// NoiseStd is the Gaussian noise standard deviation added per
	// coordinate of the delta; 0 disables noise.
	NoiseStd float64
	// Seed drives the noise streams.
	Seed uint64
}

// Validate reports configuration errors.
func (m *Mechanism) Validate() error {
	if !(m.ClipNorm >= 0) || math.IsInf(m.ClipNorm, 1) {
		return fmt.Errorf("privacy: clip norm must be non-negative and finite, got %g", m.ClipNorm)
	}
	if !(m.NoiseStd >= 0) || math.IsInf(m.NoiseStd, 1) {
		return fmt.Errorf("privacy: noise std must be non-negative and finite, got %g", m.NoiseStd)
	}
	return nil
}

// Apply transforms the update in place: w ← w0 + noise(clip(w − w0)).
// Noise is deterministic in (Seed, round, device).
func (m *Mechanism) Apply(w, w0 []float64, round, device int) {
	if len(w) != len(w0) {
		panic("privacy: parameter length mismatch")
	}
	if m.ClipNorm > 0 {
		clipDelta(w, w0, m.ClipNorm)
	}
	if m.NoiseStd > 0 {
		rng := frand.New(m.Seed).SplitIndex(round).SplitIndex(device)
		for i := range w {
			w[i] += rng.NormMeanStd(0, m.NoiseStd)
		}
	}
}

// clipDelta rescales w in place so that ‖w − w0‖₂ ≤ bound, leaving w
// unchanged when already inside the ball.
func clipDelta(w, w0 []float64, bound float64) {
	if bound <= 0 {
		panic("privacy: non-positive clip bound")
	}
	norm := math.Sqrt(tensor.SqDist(w, w0))
	if norm <= bound {
		return
	}
	scale := bound / norm
	for i := range w {
		w[i] = w0[i] + scale*(w[i]-w0[i])
	}
}

// NoiseMultiplier returns the Gaussian-mechanism noise multiplier
// z = σ/clip for a single release at (ε, δ) via the classical analytic
// bound z = sqrt(2·ln(1.25/δ))/ε. Callers multiply by the clip bound to
// get the per-coordinate σ. Composition accounting across rounds is out
// of scope.
func NoiseMultiplier(epsilon, delta float64) float64 {
	if epsilon <= 0 || delta <= 0 || delta >= 1 {
		panic("privacy: epsilon must be positive and delta in (0,1)")
	}
	return math.Sqrt(2*math.Log(1.25/delta)) / epsilon
}
