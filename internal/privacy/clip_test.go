package privacy

import (
	"math"
	"testing"
	"testing/quick"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

func TestClipDeltaInsideBallUnchanged(t *testing.T) {
	w := []float64{1, 1}
	w0 := []float64{0.5, 0.5}
	clipDelta(w, w0, 10)
	if w[0] != 1 || w[1] != 1 {
		t.Fatalf("in-ball update changed: %v", w)
	}
}

func TestClipDeltaBoundHolds(t *testing.T) {
	rng := frand.New(5)
	f := func(seed uint16) bool {
		n := 8
		w0 := rng.NormVec(make([]float64, n), 0, 1)
		w := rng.NormVec(make([]float64, n), 0, 10)
		clipDelta(w, w0, 0.5)
		return math.Sqrt(tensor.SqDist(w, w0)) <= 0.5+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestClipDeltaPreservesDirection(t *testing.T) {
	w0 := []float64{0, 0}
	w := []float64{3, 4} // norm 5
	clipDelta(w, w0, 1)
	if math.Abs(w[0]-0.6) > 1e-12 || math.Abs(w[1]-0.8) > 1e-12 {
		t.Fatalf("clip changed direction: %v", w)
	}
}

func TestClipDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bound 0 did not panic")
		}
	}()
	clipDelta([]float64{1}, []float64{0}, 0)
}
