package linear

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/solver"
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

func TestNumParams(t *testing.T) {
	m := New(60, 10)
	if got, want := m.NumParams(), 10*60+10; got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct{ dim, classes int }{{0, 2}, {-1, 2}, {5, 1}, {5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.dim, tc.classes)
				}
			}()
			New(tc.dim, tc.classes)
		}()
	}
}

func TestInitParamsZero(t *testing.T) {
	m := New(5, 3)
	w := m.InitParams(frand.New(1))
	for i, v := range w {
		if v != 0 {
			t.Fatalf("InitParams[%d] = %g, want 0", i, v)
		}
	}
}

// TestGradMatchesNumerical verifies the analytic gradient against central
// finite differences on random batches whose sizes leave the batched
// body's four-example block empty (1, 3) and full with a remainder (5).
func TestGradMatchesNumerical(t *testing.T) {
	rng := frand.New(7)
	m := New(6, 4)
	for _, n := range []int{1, 3, 5} {
		batch := randBatch(rng, n, 6, 4)
		w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.5)
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
			if math.Abs(num-grad[i]) > 1e-5*(1+math.Abs(num)) {
				t.Fatalf("batch %d: grad[%d] = %g, numerical %g", n, i, grad[i], num)
			}
		}
	}
}

// TestGradReturnsLoss: the loss Grad returns is the loss of the batch at
// w — at both widths, since the solver's subproblem loss is built on it.
func TestGradReturnsLoss(t *testing.T) {
	rng := frand.New(9)
	m := New(4, 3)
	batch := randBatch(rng, 8, 4, 3)
	w := rng.NormVec(make([]float64, m.NumParams()), 0, 1)
	l := m.Loss(w, batch)
	if gl := m.Grad(make([]float64, m.NumParams()), w, batch); math.Abs(gl-l) > 1e-12 {
		t.Fatalf("Grad loss %g != Loss %g", gl, l)
	}
	w32 := tensor.Converted[float32](w)
	xs, _ := model.Narrow(nil, batch, m.Dim)
	if gl := m.Grad32(make([]float32, m.NumParams()), w32, batch, xs); math.Abs(float64(gl)-l) > 1e-5*l {
		t.Fatalf("Grad32 loss %g != Loss %g", gl, l)
	}
}

func TestEmptyBatch(t *testing.T) {
	m := New(4, 3)
	w := make([]float64, m.NumParams())
	if l := m.Loss(w, nil); l != 0 {
		t.Fatalf("Loss(empty) = %g, want 0", l)
	}
	grad := make([]float64, m.NumParams())
	grad[0] = 99
	if l := m.Grad(grad, w, nil); l != 0 {
		t.Fatalf("Grad(empty) = %g, want 0", l)
	}
	if grad[0] != 0 {
		t.Fatal("Grad(empty) did not zero the buffer")
	}
}

func TestLossAtZeroIsLogClasses(t *testing.T) {
	rng := frand.New(11)
	m := New(5, 7)
	batch := randBatch(rng, 10, 5, 7)
	w := make([]float64, m.NumParams())
	want := math.Log(7)
	if got := m.Loss(w, batch); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Loss at zero = %g, want log(7) = %g", got, want)
	}
}

// TestGradientDescentReducesLoss checks that plain GD on a separable batch
// drives the loss down monotonically (convexity sanity).
func TestGradientDescentReducesLoss(t *testing.T) {
	rng := frand.New(13)
	m := New(3, 2)
	// Linearly separable: class = sign of first coordinate.
	var batch []data.Example
	for i := 0; i < 40; i++ {
		x := rng.NormVec(make([]float64, 3), 0, 1)
		y := 0
		if x[0] > 0 {
			y = 1
		}
		batch = append(batch, data.Example{X: x, Y: y})
	}
	w := make([]float64, m.NumParams())
	grad := make([]float64, m.NumParams())
	prev := m.Loss(w, batch)
	for step := 0; step < 50; step++ {
		m.Grad(grad, w, batch)
		for i := range w {
			w[i] -= 0.5 * grad[i]
		}
		cur := m.Loss(w, batch)
		if cur > prev+1e-9 {
			t.Fatalf("loss increased at step %d: %g -> %g", step, prev, cur)
		}
		prev = cur
	}
	if _, c := metrics.ShardEval(m, w, &data.Shard{Test: batch}); float64(c) < 0.95*float64(len(batch)) {
		t.Fatalf("separable: %d of %d correct, want >= 95%%", c, len(batch))
	}
}

func TestPredictArgmax(t *testing.T) {
	m := New(2, 3)
	w := make([]float64, m.NumParams())
	// W rows: class 0 = [1,0], class 1 = [0,1], class 2 = [0,0].
	w[0] = 1 // W[0][0]
	w[3] = 1 // W[1][1]
	got := make([]int, 2)
	m.Predict(w, []data.Example{{X: []float64{5, 1}}, {X: []float64{1, 5}}}, got)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("Predict = %v, want [0 1]", got)
	}
}

// TestForwardMatchesPerExampleMatVecAdd: Loss and Predict, four examples
// abreast, give the bits of the one-example-at-a-time forward pass —
// tensor.MatVecAdd per example, LogSumExp − logit summed in order — on
// every prefix of every split of every shard, so every ragged last block
// is covered: at MNIST's 784×10 and at the lazy fleet's 10×5.
func TestForwardMatchesPerExampleMatVecAdd(t *testing.T) {
	lazy := synthetic.NewFleet(synthetic.Config{
		Alpha: 1, Beta: 1, Devices: 40, Dim: 10, Classes: 5,
		MinSamples: 10, MaxSamples: 20, PowerAlpha: 1.55, TrainFrac: 0.8, Seed: 43,
	})
	for _, tc := range []struct {
		name string
		fl   data.Fleet
		m    *Model
	}{
		{"mnist", mnistsim.GenerateScaled(0.2).Fleet(), New(784, 10)},
		{"lazy", lazy, New(10, 5)},
	} {
		w := frand.New(21).NormVec(make([]float64, tc.m.NumParams()), 0, 0.05)
		W, b := split(tc.m, w)
		logits := make([]float64, tc.m.Classes)
		for k := 0; k < tc.fl.NumDevices(); k++ {
			s := tc.fl.Shard(k)
			for _, batch := range [][]data.Example{s.Train, s.Test} {
				total, labels := 0.0, make([]int, len(batch))
				for p, ex := range batch {
					tensor.MatVecAdd(logits, W, ex.X, b)
					total += tensor.LogSumExp(logits) - logits[ex.Y]
					if got, want := tc.m.Loss(w, batch[:p+1]), total/float64(p+1); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s device %d: Loss of %d examples = %v, per-example MatVecAdd gives %v", tc.name, k, p+1, got, want)
					}
					tc.m.Predict(w, batch[:p+1], labels[:p+1])
					if want := tensor.ArgMax(logits); labels[p] != want {
						t.Fatalf("%s device %d: Predict of %d examples labels the last %d, per-example MatVecAdd %d", tc.name, k, p+1, labels[p], want)
					}
				}
			}
			tc.fl.Release(s)
		}
	}
}

// TestForwardRejectsWrongLengthX: an X of the wrong length panics with a
// shape message before the kernel reads it — nothing of its block of four
// is written — wherever it sits in the batch.
func TestForwardRejectsWrongLengthX(t *testing.T) {
	const dim = 6
	m := New(dim, 5)
	w := frand.New(3).NormVec(make([]float64, m.NumParams()), 0, 1)
	for _, at := range []int{0, 3, 9} {
		for _, n := range []int{dim - 1, dim + 1} {
			batch := randBatch(frand.New(4), 10, dim, 5)
			batch[at].X = make([]float64, n)
			labels := make([]int, len(batch))
			for e := range labels {
				labels[e] = -1
			}
			for name, call := range map[string]func(){
				"Loss":    func() { m.Loss(w, batch) },
				"Predict": func() { m.Predict(w, batch, labels) },
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "shape mismatch") {
							t.Errorf("%s with a %d-feature X at %d: recovered %q, want a shape mismatch panic", name, n, at, msg)
						}
					}()
					call()
				}()
			}
			for e := at / 4 * 4; e < len(labels); e++ {
				if labels[e] != -1 {
					t.Fatalf("Predict with a %d-feature X at %d wrote label %d of its block", n, at, e)
				}
			}
		}
	}
}

func TestGradBufferSizePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Grad with wrong buffer size did not panic")
		}
	}()
	m.Grad(make([]float64, 3), make([]float64, m.NumParams()), nil)
}

// ref64 and ref32 are float64 and float32 under other names: the tensor
// kernels run their generic Go bodies for them, never an assembly strip.
type (
	ref64 float64
	ref32 float32
)

// refGrad is the gradient by the formula that gathered the batch into a
// B×Dim panel, zeroed the whole gradient and then ran the batch kernels
// over the panel's rows; at a ref type every kernel is its Go body.
func refGrad[R tensor.Float](m *Model, dst, w []R, batch []data.Example) R {
	tensor.Zero(dst)
	B := len(batch)
	W, b := split(m, w)
	gW, gb := split(m, dst)
	X := tensor.MatView(make([]R, B*m.Dim), B, m.Dim)
	xs := make([][]R, B)
	for e, ex := range batch {
		tensor.Convert(X.Row(e), ex.X)
		xs[e] = X.Row(e)
	}
	P := tensor.MatView(make([]R, B*m.Classes), B, m.Classes)
	tensor.MatMulNT(P, xs, W, b)
	var total R
	for e, ex := range batch {
		row := P.Row(e)
		total += tensor.CrossEntropySoftmax(row, row, ex.Y)
		row[ex.Y] -= 1
	}
	inv := 1 / R(B)
	tensor.AddOuterPanel(gW, inv, P, xs)
	for e := 0; e < B; e++ {
		tensor.Axpy(inv, P.Row(e), gb)
	}
	return total * inv
}

// sameGrad fails t unless got and want, the gradients and their losses,
// agree bit for bit.
func sameGrad[T, R tensor.Float](t *testing.T, what string, got []T, gotLoss T, want []R, wantLoss R) {
	t.Helper()
	bits := func(v float64) uint64 { return math.Float64bits(v) }
	if bits(float64(gotLoss)) != bits(float64(wantLoss)) {
		t.Fatalf("%s: loss %v, reference %v", what, gotLoss, wantLoss)
	}
	for i := range got {
		if bits(float64(got[i])) != bits(float64(want[i])) {
			t.Fatalf("%s: grad[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestGradMatchesGatheredReference: Grad and Grad32, reading the examples
// in place (Grad32 their narrowed rows) and writing the weight block
// without zeroing it, give the reference's bits at every batch size from
// one example to three blocks and a leftover — at MNIST's 784×10 and at
// an odd 13×5. dst starts out NaN, so an element left unwritten shows.
func TestGradMatchesGatheredReference(t *testing.T) {
	rng := frand.New(17)
	for _, shape := range [][2]int{{13, 5}, {784, 10}} {
		m := New(shape[0], shape[1])
		w := rng.NormVec(make([]float64, m.NumParams()), 0, 0.1)
		w32 := tensor.Converted[float32](w)
		for B := 1; B <= 13; B++ {
			batch := randBatch(rng, B, m.Dim, m.Classes)
			what := fmt.Sprintf("%dx%d batch %d", m.Dim, m.Classes, B)

			got, want := make([]float64, m.NumParams()), make([]ref64, m.NumParams())
			for i := range got {
				got[i] = math.NaN()
			}
			loss := m.Grad(got, w, batch)
			wr := make([]ref64, len(w))
			tensor.Convert(wr, w)
			sameGrad(t, "Grad "+what, got, loss, want, refGrad(m, want, wr, batch))

			got32, want32 := make([]float32, m.NumParams()), make([]ref32, m.NumParams())
			for i := range got32 {
				got32[i] = float32(math.NaN())
			}
			xs, _ := model.Narrow(nil, batch, m.Dim)
			loss32 := m.Grad32(got32, w32, batch, xs)
			wr32 := make([]ref32, len(w32))
			tensor.Convert(wr32, w32)
			sameGrad(t, "Grad32 "+what, got32, loss32, want32, refGrad(m, want32, wr32, batch))
		}
	}
}

// TestGradRejectsWrongLengthX: an X of the wrong length panics with a
// shape message at either width, wherever it sits in the batch, before
// anything of dst is written. At float32 the check sits where the
// features are narrowed (model.Narrow), so a float32 SGD, GDSolver or
// Gamma panics with it wherever the X sits in train, before a step: no
// vector comes back and w0 is untouched.
func TestGradRejectsWrongLengthX(t *testing.T) {
	const dim, classes, sentinel = 6, 5, 7
	m := New(dim, classes)
	w := frand.New(3).NormVec(make([]float64, m.NumParams()), 0, 1)
	w32 := tensor.Converted[float32](w)
	start := slices.Clone(w)
	cfg := solver.Config{LearningRate: 0.1, BatchSize: 4, Mu: 1, Precision: tensor.F32}
	for _, at := range []int{0, 3, 9} {
		for _, n := range []int{dim - 1, dim + 1} {
			batch := randBatch(frand.New(4), 10, dim, classes)
			batch[at].X = make([]float64, n)
			d64, d32 := make([]float64, m.NumParams()), make([]float32, m.NumParams())
			for i := range d64 {
				d64[i], d32[i] = sentinel, sentinel
			}
			var solved []float64
			for name, call := range map[string]func(){
				"Grad": func() { m.Grad(d64, w, batch) },
				"Grad32": func() {
					xs, _ := model.Narrow(nil, batch, m.Dim)
					m.Grad32(d32, w32, batch, xs)
				},
				"f32 SGD":      func() { solved = solver.SGD(m, batch, w, cfg, 2, frand.New(5)) },
				"f32 GDSolver": func() { solved = solver.GDSolver{StepsPerEpoch: 2}.Solve(m, batch, w, cfg, 2, nil) },
				"f32 Gamma":    func() { solver.Gamma(m, batch, w, w, cfg) },
			} {
				func() {
					defer func() {
						if msg, _ := recover().(string); !strings.Contains(msg, "shape mismatch") {
							t.Errorf("%s with a %d-feature X at %d: recovered %q, want a shape mismatch panic", name, n, at, msg)
						}
					}()
					call()
				}()
			}
			for i := range d64 {
				if d64[i] != sentinel || d32[i] != sentinel {
					t.Fatalf("a %d-feature X at %d: gradient element %d written (%v, %v) before the panic", n, at, i, d64[i], d32[i])
				}
			}
			if solved != nil || !slices.Equal(w, start) {
				t.Fatalf("a %d-feature X at %d: a solve returned %v or stepped w0 before the panic", n, at, solved)
			}
		}
	}
}
