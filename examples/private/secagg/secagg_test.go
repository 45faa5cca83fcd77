package secagg

import (
	"math"
	"testing"
	"testing/quick"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

func TestMasksCancelInSum(t *testing.T) {
	rng := frand.New(3)
	ids := []int{4, 1, 9}
	const dim = 32
	c, err := NewCohort(ids, dim, 12345)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, dim)
	uploads := map[int][]int64{}
	for _, id := range ids {
		v := rng.NormVec(make([]float64, dim), 0, 1)
		tensor.Axpy(1, v, truth)
		u, err := c.Mask(id, v)
		if err != nil {
			t.Fatal(err)
		}
		uploads[id] = u
	}
	got, err := c.Aggregate(uploads)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(got[i]-truth[i]) > 3.0/scale*float64(len(ids)) {
			t.Fatalf("coordinate %d: recovered %g, truth %g", i, got[i], truth[i])
		}
	}
}

func TestMaskedUploadHidesPayload(t *testing.T) {
	// A single masked upload must look nothing like the payload: the mask
	// magnitude (~2^40 lattice units ≈ 2^20 in float) dwarfs any model
	// coordinate, so correlation with the payload is invisible.
	c, err := NewCohort([]int{0, 1}, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	u, err := c.Mask(0, v)
	if err != nil {
		t.Fatal(err)
	}
	for i := range u {
		if math.Abs(float64(u[i])/scale-v[i]) < 100 {
			t.Fatalf("coordinate %d leaked: upload %g vs payload %g", i, float64(u[i])/scale, v[i])
		}
	}
}

func TestPairwiseMasksAreOpposite(t *testing.T) {
	c, err := NewCohort([]int{2, 7}, 16, 5)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.maskFor(2)
	if err != nil {
		t.Fatal(err)
	}
	m7, err := c.maskFor(7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m2 {
		if m2[i]+m7[i] != 0 {
			t.Fatalf("pair masks do not cancel at %d: %d + %d", i, m2[i], m7[i])
		}
	}
}

func TestWeightedAverageMatchesPlain(t *testing.T) {
	rng := frand.New(11)
	ids := []int{0, 3, 5, 8}
	const dim = 24
	c, err := NewCohort(ids, dim, 777)
	if err != nil {
		t.Fatal(err)
	}
	models := map[int][]float64{}
	sizes := map[int]int{}
	for i, id := range ids {
		models[id] = rng.NormVec(make([]float64, dim), 0, 1)
		sizes[id] = 10 * (i + 1)
	}
	secure, err := c.WeightedAverage(models, sizes)
	if err != nil {
		t.Fatal(err)
	}
	// Plain weighted average for comparison.
	plain := make([]float64, dim)
	total := 0
	for _, id := range ids {
		total += sizes[id]
	}
	for _, id := range ids {
		tensor.Axpy(float64(sizes[id])/float64(total), models[id], plain)
	}
	for i := range plain {
		if math.Abs(secure[i]-plain[i]) > 1e-4 {
			t.Fatalf("coordinate %d: secure %g vs plain %g", i, secure[i], plain[i])
		}
	}
}

func TestAggregateRefusesPartialCohort(t *testing.T) {
	c, err := NewCohort([]int{0, 1, 2}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	u0, _ := c.Mask(0, make([]float64, 4))
	u1, _ := c.Mask(1, make([]float64, 4))
	if _, err := c.Aggregate(map[int][]int64{0: u0, 1: u1}); err == nil {
		t.Fatal("partial cohort accepted; masks would not cancel")
	}
}

func TestCohortValidation(t *testing.T) {
	if _, err := NewCohort([]int{1}, 4, 1); err == nil {
		t.Fatal("single participant accepted")
	}
	if _, err := NewCohort([]int{1, 1}, 4, 1); err == nil {
		t.Fatal("duplicate participant accepted")
	}
	if _, err := NewCohort([]int{1, 2}, 0, 1); err == nil {
		t.Fatal("zero dimension accepted")
	}
	c, _ := NewCohort([]int{1, 2}, 4, 1)
	if _, err := c.Mask(3, make([]float64, 4)); err == nil {
		t.Fatal("non-member masked")
	}
	if _, err := c.Mask(1, make([]float64, 5)); err == nil {
		t.Fatal("wrong payload dim accepted")
	}
}

func TestCancellationProperty(t *testing.T) {
	// Property: for random cohorts and payloads, the recovered sum matches
	// the true sum within lattice resolution.
	f := func(seed uint16, nRaw uint8) bool {
		n := int(nRaw%5) + 2
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i * 3
		}
		c, err := NewCohort(ids, 6, uint64(seed))
		if err != nil {
			return false
		}
		rng := frand.New(uint64(seed) + 1)
		truth := make([]float64, 6)
		uploads := map[int][]int64{}
		for _, id := range ids {
			v := rng.NormVec(make([]float64, 6), 0, 10)
			tensor.Axpy(1, v, truth)
			u, err := c.Mask(id, v)
			if err != nil {
				return false
			}
			uploads[id] = u
		}
		got, err := c.Aggregate(uploads)
		if err != nil {
			return false
		}
		for i := range truth {
			if math.Abs(got[i]-truth[i]) > float64(n)*2/scale*10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParticipantsSorted(t *testing.T) {
	c, err := NewCohort([]int{9, 2, 5}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := c.Participants()
	if p[0] != 2 || p[1] != 5 || p[2] != 9 {
		t.Fatalf("participants = %v", p)
	}
	// Returned slice must be a copy.
	p[0] = 100
	if c.Participants()[0] == 100 {
		t.Fatal("Participants leaked internal state")
	}
}
