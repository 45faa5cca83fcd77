package mlp

import (
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/tensor"
)

func randBatch(rng *frand.Source, n, dim, classes int) []data.Example {
	out := make([]data.Example, n)
	for i := range out {
		x := rng.NormVec(make([]float64, dim), 0, 1)
		out[i] = data.Example{X: x, Y: rng.Intn(classes)}
	}
	return out
}

func TestNumParamsLayout(t *testing.T) {
	m := newModel(5, 7, 3)
	// layer0: 7*5 + 7; layer1: 3*7 + 3.
	if got, want := m.NumParams(), 35+7+21+3; got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestNewPanics(t *testing.T) {
	cases := [][]int{{5}, {5, 0, 3}, {5, -1, 3}, {5, 4, 1}}
	for i, sizes := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: newModel(%v) did not panic", i, sizes)
				}
			}()
			newModel(sizes...)
		}()
	}
}

// TestGradMatchesNumerical validates the backprop against central finite
// differences for a 2-hidden-layer network, on batches whose sizes leave
// the batched body's four-example block empty (1, 3) and full with a
// remainder (5).
func TestGradMatchesNumerical(t *testing.T) {
	rng := frand.New(71)
	m := newModel(5, 6, 4, 3)
	for _, n := range []int{1, 3, 5} {
		batch := randBatch(rng, n, 5, 3)
		w := m.InitParams(rng)
		grad := make([]float64, m.NumParams())
		m.Grad(grad, w, batch)
		const h = 1e-6
		for i := 0; i < m.NumParams(); i++ {
			orig := w[i]
			w[i] = orig + h
			up := m.Loss(w, batch)
			w[i] = orig - h
			down := m.Loss(w, batch)
			w[i] = orig
			num := (up - down) / (2 * h)
			if math.Abs(num-grad[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("batch %d: grad[%d] = %g, numerical %g", n, i, grad[i], num)
			}
		}
	}
}

// TestGradReturnsLoss: the loss Grad returns is the loss of the batch at
// w — at both widths, since the solver's subproblem loss is built on it.
func TestGradReturnsLoss(t *testing.T) {
	rng := frand.New(73)
	m := newModel(4, 5, 3)
	batch := randBatch(rng, 6, 4, 3)
	w := m.InitParams(rng)
	l := m.Loss(w, batch)
	if gl := m.Grad(make([]float64, m.NumParams()), w, batch); math.Abs(gl-l) > 1e-12 {
		t.Fatalf("Grad loss %g != Loss %g", gl, l)
	}
	w32 := tensor.Converted[float32](w)
	if gl := m.Grad32(make([]float32, m.NumParams()), w32, batch); math.Abs(float64(gl)-l) > 1e-5*l {
		t.Fatalf("Grad32 loss %g != Loss %g", gl, l)
	}
}

func TestEmptyBatch(t *testing.T) {
	m := newModel(3, 4, 2)
	w := m.InitParams(frand.New(1))
	grad := make([]float64, m.NumParams())
	grad[0] = 5
	if l := m.Grad(grad, w, nil); l != 0 || grad[0] != 0 {
		t.Fatal("empty batch not handled")
	}
	if l := m.Loss(w, nil); l != 0 {
		t.Fatal("empty loss not zero")
	}
}

// TestSolvesXOR: the canonical non-convex sanity check no linear model can
// pass.
func TestSolvesXOR(t *testing.T) {
	m := newModel(2, 8, 2)
	batch := []data.Example{
		{X: []float64{0, 0}, Y: 0},
		{X: []float64{0, 1}, Y: 1},
		{X: []float64{1, 0}, Y: 1},
		{X: []float64{1, 1}, Y: 0},
	}
	w := m.InitParams(frand.New(5))
	grad := make([]float64, m.NumParams())
	for step := 0; step < 2000; step++ {
		m.Grad(grad, w, batch)
		for i := range w {
			w[i] -= 0.5 * grad[i]
		}
	}
	if _, c := metrics.ShardEval(m, w, &data.Shard{Test: batch}); c != len(batch) {
		t.Fatalf("XOR: %d of %d correct, want all", c, len(batch))
	}
}

func TestForDataset(t *testing.T) {
	fed := &data.Federated{Name: "d", NumClasses: 4, FeatureDim: 9,
		Shards: []*data.Shard{{Train: []data.Example{{X: make([]float64, 9), Y: 0}}}}}
	m := ForDataset(fed, 16, 8)
	if m.NumParams() != 16*9+16+8*16+8+4*8+4 {
		t.Fatalf("ForDataset params = %d", m.NumParams())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sequence dataset did not panic")
		}
	}()
	ForDataset(&data.Federated{VocabSize: 5, NumClasses: 2}, 4)
}

func TestDeterministicInit(t *testing.T) {
	m := newModel(4, 5, 3)
	a := m.InitParams(frand.New(9))
	b := m.InitParams(frand.New(9))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("init not deterministic")
		}
	}
	// Biases start at zero.
	for _, lo := range m.offsets {
		for j := 0; j < lo.out; j++ {
			if a[lo.b+j] != 0 {
				t.Fatal("bias not zero-initialized")
			}
		}
	}
}
