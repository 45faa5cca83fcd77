// Package secagg implements pairwise-mask secure aggregation (Bonawitz et
// al.-style, simplified to the honest-but-curious, no-dropout setting):
// the server learns only the SUM of the participants' vectors, never any
// individual contribution.
//
// The paper notes (footnote 1) that standard privacy mechanisms "can
// naturally be combined with the methods proposed herein" because FedProx
// only changes the local objective; aggregation remains a weighted sum.
// This package demonstrates that composition: each device k uploads
//
//	masked_k = n_k·w_k + Σ_{j>k} PRG(s_kj) − Σ_{j<k} PRG(s_jk)
//
// where s_ij is a seed shared pairwise between devices i and j. Every
// mask appears exactly once with each sign across the cohort, so the
// masks cancel in the sum and the server recovers Σ n_k·w_k exactly —
// which divided by Σ n_k is precisely the FedProx weighted average.
//
// Masks are generated in a fixed-point lattice (scaled int64) so
// cancellation is exact rather than subject to float rounding.
package secagg

import (
	"fmt"
	"sort"

	"fedprox/internal/frand"
)

// scale converts between float64 payloads and the int64 lattice the masks
// live in. 2^20 gives ~1e-6 resolution over the |v| < 2^43/2^20 ≈ 8e6
// range, far beyond any model coordinate in this repository.
const scale = 1 << 20

// Cohort is one aggregation round's participant set with its pairwise
// seeds. Seeds derive deterministically from a round secret; in a real
// deployment each pair runs a key agreement, which this simulation stands
// in for.
type Cohort struct {
	ids   []int
	seeds map[[2]int]uint64 // (lo, hi) -> shared seed
	dim   int
}

// NewCohort creates a cohort for the given device IDs and vector
// dimension. roundSecret stands in for the pairwise key agreement; every
// pair (i, j) derives seed = H(roundSecret, i, j) known only to i and j
// (and, in this simulation, to the test harness).
func NewCohort(ids []int, dim int, roundSecret uint64) (*Cohort, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("secagg: cohort needs >= 2 participants, got %d", len(ids))
	}
	if dim <= 0 {
		return nil, fmt.Errorf("secagg: non-positive dimension %d", dim)
	}
	sorted := append([]int(nil), ids...)
	sort.Ints(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, fmt.Errorf("secagg: duplicate participant %d", sorted[i])
		}
	}
	root := frand.New(roundSecret)
	seeds := make(map[[2]int]uint64)
	for a := 0; a < len(sorted); a++ {
		for b := a + 1; b < len(sorted); b++ {
			pair := [2]int{sorted[a], sorted[b]}
			seeds[pair] = root.SplitIndex(pair[0]).SplitIndex(pair[1]).Uint64()
		}
	}
	return &Cohort{ids: sorted, seeds: seeds, dim: dim}, nil
}

// Participants returns the cohort's device IDs in ascending order.
func (c *Cohort) Participants() []int { return append([]int(nil), c.ids...) }

// maskFor returns the lattice mask device id applies: +PRG for partners
// above it, −PRG for partners below.
func (c *Cohort) maskFor(id int) ([]int64, error) {
	found := false
	for _, x := range c.ids {
		if x == id {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("secagg: device %d not in cohort", id)
	}
	mask := make([]int64, c.dim)
	for _, other := range c.ids {
		if other == id {
			continue
		}
		pair := [2]int{id, other}
		sign := int64(1)
		if other < id {
			pair = [2]int{other, id}
			sign = -1
		}
		prg := frand.New(c.seeds[pair])
		for i := range mask {
			// Bounded mask magnitude keeps the masked sum inside int64.
			mask[i] += sign * int64(prg.Uint64()%(1<<40)) //nolint:gosec
		}
	}
	return mask, nil
}

// Mask produces device id's upload for payload v (already weighted by the
// caller, e.g. n_k·w_k). The result reveals nothing about v without the
// complementary masks.
func (c *Cohort) Mask(id int, v []float64) ([]int64, error) {
	if len(v) != c.dim {
		return nil, fmt.Errorf("secagg: payload dim %d != cohort dim %d", len(v), c.dim)
	}
	mask, err := c.maskFor(id)
	if err != nil {
		return nil, err
	}
	out := make([]int64, c.dim)
	for i := range v {
		out[i] = int64(v[i]*scale) + mask[i]
	}
	return out, nil
}

// Aggregate sums the masked uploads of the FULL cohort and returns the
// recovered Σ v_k. It fails if any participant is missing (this simplified
// protocol has no dropout recovery; the caller decides cohorts after
// seeing who reported in).
func (c *Cohort) Aggregate(uploads map[int][]int64) ([]float64, error) {
	if len(uploads) != len(c.ids) {
		return nil, fmt.Errorf("secagg: need all %d uploads, got %d (no dropout recovery)",
			len(c.ids), len(uploads))
	}
	sum := make([]int64, c.dim)
	for _, id := range c.ids {
		u, ok := uploads[id]
		if !ok {
			return nil, fmt.Errorf("secagg: missing upload from device %d", id)
		}
		if len(u) != c.dim {
			return nil, fmt.Errorf("secagg: device %d upload dim %d != %d", id, len(u), c.dim)
		}
		for i := range sum {
			sum[i] += u[i]
		}
	}
	out := make([]float64, c.dim)
	for i := range sum {
		out[i] = float64(sum[i]) / scale
	}
	return out, nil
}

// WeightedAverage runs the whole round: every device masks n_k·w_k, the
// server aggregates, and the result is divided by Σ n_k — the FedProx
// aggregation rule computed without the server ever seeing a single
// device's model.
func (c *Cohort) WeightedAverage(models map[int][]float64, sizes map[int]int) ([]float64, error) {
	uploads := make(map[int][]int64, len(models))
	totalN := 0
	for _, id := range c.ids {
		w, ok := models[id]
		if !ok {
			return nil, fmt.Errorf("secagg: missing model for device %d", id)
		}
		n, ok := sizes[id]
		if !ok || n <= 0 {
			return nil, fmt.Errorf("secagg: missing or invalid size for device %d", id)
		}
		weighted := make([]float64, len(w))
		for i := range w {
			weighted[i] = float64(n) * w[i]
		}
		u, err := c.Mask(id, weighted)
		if err != nil {
			return nil, err
		}
		uploads[id] = u
		totalN += n
	}
	sum, err := c.Aggregate(uploads)
	if err != nil {
		return nil, err
	}
	for i := range sum {
		sum[i] /= float64(totalN)
	}
	return sum, nil
}
