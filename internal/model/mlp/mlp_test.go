package mlp

import (
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
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
	xs, _ := model.Narrow(nil, batch, m.InputDim())
	if gl := m.Grad32(make([]float32, m.NumParams()), w32, batch, xs); math.Abs(float64(gl)-l) > 1e-5*l {
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

// ref64 and ref32 are float64 and float32 under other names: the tensor
// kernels run their generic Go bodies for them, never an assembly strip.
type (
	ref64 float64
	ref32 float32
)

// refGrad is the backpropagation by the formula that gathered the batch
// into an input panel, zeroed the whole gradient and then ran the batch
// kernels over every activation panel's rows; at a ref type every kernel
// is its Go body.
func refGrad[R tensor.Float](m *Model, dst, w []R, batch []data.Example) R {
	tensor.Zero(dst)
	B, L := len(batch), len(m.offsets)
	A := make([]tensor.Matrix[R], L+1)
	rows := make([][][]R, L+1)
	for l := range A {
		A[l] = tensor.MatView(make([]R, B*m.sizes[l]), B, m.sizes[l])
		rows[l] = make([][]R, B)
		for e := range rows[l] {
			rows[l][e] = A[l].Row(e)
		}
	}
	for e, ex := range batch {
		tensor.Convert(A[0].Row(e), ex.X)
	}
	for l := 0; l < L; l++ {
		W, b := layer(m, w, l)
		tensor.MatMulNT(A[l+1], rows[l], W, b)
		if l < L-1 {
			for i, v := range A[l+1].Data {
				A[l+1].Data[i] = tensor.Tanh(v)
			}
		}
	}
	var total R
	for e, ex := range batch {
		row := A[L].Row(e)
		total += tensor.CrossEntropySoftmax(row, row, ex.Y)
		row[ex.Y] -= 1
	}
	inv := 1 / R(B)
	delta := A[L]
	for l := L - 1; l >= 0; l-- {
		W, _ := layer(m, w, l)
		gW, gb := layer(m, dst, l)
		tensor.AddOuterPanel(gW, inv, delta, rows[l])
		for e := 0; e < B; e++ {
			tensor.Axpy(inv, delta.Row(e), gb)
		}
		if l == 0 {
			break
		}
		D := tensor.MatView(make([]R, B*m.offsets[l].in), B, m.offsets[l].in)
		tensor.MatMul(D, delta, W)
		h := A[l].Data
		for i, v := range D.Data {
			D.Data[i] = v * (1 - h[i]*h[i])
		}
		delta = D
	}
	return total * inv
}

// TestGradMatchesGatheredReference: Grad and Grad32 — the input layer read
// in place (at float32, its narrowed rows), every weight block written
// without zeroing — give the reference's bits at every batch size from one
// example to three blocks and a leftover, on layers of odd and even
// widths. dst starts out NaN, so an element left unwritten shows.
func TestGradMatchesGatheredReference(t *testing.T) {
	rng := frand.New(23)
	for _, sizes := range [][]int{{13, 7, 5}, {64, 10, 6, 3}} {
		m := newModel(sizes...)
		w := m.InitParams(rng)
		w32 := tensor.Converted[float32](w)
		wr, wr32 := make([]ref64, len(w)), make([]ref32, len(w))
		tensor.Convert(wr, w)
		tensor.Convert(wr32, w32)
		for B := 1; B <= 13; B++ {
			batch := randBatch(rng, B, sizes[0], sizes[len(sizes)-1])
			got, got32 := make([]float64, m.NumParams()), make([]float32, m.NumParams())
			for i := range got {
				got[i], got32[i] = math.NaN(), float32(math.NaN())
			}
			want, want32 := make([]ref64, m.NumParams()), make([]ref32, m.NumParams())
			loss, wantLoss := m.Grad(got, w, batch), refGrad(m, want, wr, batch)
			xs, _ := model.Narrow(nil, batch, m.InputDim())
			loss32, wantLoss32 := m.Grad32(got32, w32, batch, xs), refGrad(m, want32, wr32, batch)
			if math.Float64bits(loss) != math.Float64bits(float64(wantLoss)) || math.Float32bits(loss32) != math.Float32bits(float32(wantLoss32)) {
				t.Fatalf("%v batch %d: losses %v, %v, reference %v, %v", sizes, B, loss, loss32, wantLoss, wantLoss32)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(float64(want[i])) || math.Float32bits(got32[i]) != math.Float32bits(float32(want32[i])) {
					t.Fatalf("%v batch %d: grad[%d] = %v, %v (f32), reference %v, %v", sizes, B, i, got[i], got32[i], want[i], want32[i])
				}
			}
		}
	}
}
