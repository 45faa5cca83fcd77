// Package mlp implements a multi-layer perceptron with tanh hidden
// activations and a softmax head, with manual backpropagation.
//
// The paper's convex experiments use multinomial logistic regression; the
// FedProx framework itself is model-agnostic and its analysis explicitly
// covers non-convex F_k (Theorem 4). This package provides the natural
// non-convex counterpart for the dense-input datasets, used by the
// ext-nonconvex ablation to show the straggler and proximal results
// survive non-convexity on the same data.
//
// Parameters are flat: for each layer, W (out×in) row-major then b (out).
package mlp

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Model is a dense feed-forward classifier.
type Model struct {
	// sizes is [in, hidden..., classes].
	sizes   []int
	offsets []layerOffsets
	nParams int
}

type layerOffsets struct {
	w, b    int
	in, out int
}

var _ model.Model32 = (*Model)(nil)

// newModel returns an MLP with the given layer sizes: input dimension, one or
// more hidden widths, and the class count last.
func newModel(sizes ...int) *Model {
	if len(sizes) < 2 {
		panic("mlp: need at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			panic("mlp: non-positive layer size")
		}
	}
	if sizes[len(sizes)-1] < 2 {
		panic("mlp: need at least 2 classes")
	}
	m := &Model{sizes: append([]int(nil), sizes...)}
	off := 0
	for l := 0; l+1 < len(sizes); l++ {
		lo := layerOffsets{in: sizes[l], out: sizes[l+1], w: off}
		off += lo.in * lo.out
		lo.b = off
		off += lo.out
		m.offsets = append(m.offsets, lo)
	}
	m.nParams = off
	return m
}

// ForDataset returns an MLP sized for a dense federated dataset with the
// given hidden widths.
func ForDataset(f *data.Federated, hidden ...int) *Model {
	if f.FeatureDim == 0 {
		panic("mlp: dataset is not dense")
	}
	sizes := append([]int{f.FeatureDim}, hidden...)
	sizes = append(sizes, f.NumClasses)
	return newModel(sizes...)
}

// NumParams returns the flat parameter count.
func (m *Model) NumParams() int { return m.nParams }

// InitParams returns Glorot-normal initialized weights with zero biases.
func (m *Model) InitParams(rng *frand.Source) []float64 {
	w := make([]float64, m.nParams)
	for _, lo := range m.offsets {
		std := math.Sqrt(2 / float64(lo.in+lo.out))
		rng.NormVec(w[lo.w:lo.w+lo.in*lo.out], 0, std)
	}
	return w
}

func layer[T tensor.Float](m *Model, w []T, l int) (tensor.Matrix[T], []T) {
	lo := m.offsets[l]
	return tensor.MatView(w[lo.w:lo.w+lo.in*lo.out], lo.out, lo.in), w[lo.b : lo.b+lo.out]
}

// forward computes one example's logits.
func (m *Model) forward(w []float64, x []float64, logits []float64) {
	cur := x
	for l := 0; l < len(m.offsets); l++ {
		W, b := layer(m, w, l)
		last := l == len(m.offsets)-1
		var out []float64
		if last {
			out = logits
		} else {
			out = make([]float64, m.offsets[l].out)
		}
		tensor.MatVecAdd(out, W, cur, b)
		if !last {
			for i := range out {
				out[i] = math.Tanh(out[i])
			}
		}
		cur = out
	}
}

// Loss returns mean cross-entropy over the batch.
func (m *Model) Loss(w []float64, batch []data.Example) float64 {
	if len(batch) == 0 {
		return 0
	}
	if len(w) != m.nParams {
		panic("mlp: parameter vector size mismatch")
	}
	logits := make([]float64, m.sizes[len(m.sizes)-1])
	total := 0.0
	for _, ex := range batch {
		m.forward(w, ex.X, logits)
		total += tensor.LogSumExp(logits) - logits[ex.Y]
	}
	return total / float64(len(batch))
}

// Grad writes the mean gradient into dst and returns the mean loss.
func (m *Model) Grad(dst, w []float64, batch []data.Example) float64 {
	return grad(m, dst, w, batch, model.ExampleRows(nil, batch, m.sizes[0]))
}

// InputDim implements model.Model32.
func (m *Model) InputDim() int { return m.sizes[0] }

// Grad32 implements model.Model32.
func (m *Model) Grad32(dst, w tensor.Vec32, batch []data.Example, xs [][]float32) float32 {
	return grad(m, dst, w, batch, xs)
}

// grad is the batched backpropagation at either width: one activation
// panel per layer (B×width, pooled; the input layer is xs, the examples'
// X read in place at float64 and their narrowed rows at float32),
// forward as X·Wᵀ multiplies, and the backward pass pushing a whole
// B×width delta panel through each layer — so every weight row is
// streamed against the full minibatch.
// AddOuterPanel writes each weight block, so only the biases are zeroed.
func grad[T tensor.Float](m *Model, dst, w []T, batch []data.Example, xs [][]T) T {
	if len(dst) != m.nParams {
		panic("mlp: gradient buffer size mismatch")
	}
	if len(batch) == 0 {
		tensor.Zero(dst)
		return 0
	}
	B := len(batch)
	L := len(m.offsets)

	// A[l] holds the layer-l activations for the whole batch and rows[l]
	// its rows, the next layer's inputs: rows[0] the examples,
	// A[1..L-1] tanh outputs, A[L] logits-then-probs.
	rows := make([][][]T, L)
	rows[0] = xs
	bufs := make([][]T, L+1)
	A := make([]tensor.Matrix[T], L+1)
	for l := 1; l <= L; l++ {
		bufs[l] = tensor.GetVec[T](B * m.sizes[l])
		A[l] = tensor.MatView(bufs[l], B, m.sizes[l])
		if l < L {
			rows[l] = make([][]T, B)
			for e := range rows[l] {
				rows[l][e] = A[l].Row(e)
			}
		}
	}
	for l := 0; l < L; l++ {
		W, b := layer(m, w, l)
		tensor.MatMulNT(A[l+1], rows[l], W, b)
		if l < L-1 {
			out := bufs[l+1]
			for i, v := range out {
				out[i] = tensor.Tanh(v)
			}
		}
	}

	var total T
	for e, ex := range batch {
		row := A[L].Row(e)
		total += tensor.CrossEntropySoftmax(row, row, ex.Y)
		row[ex.Y] -= 1
	}

	inv := 1 / T(B)
	delta := A[L] // dL/dlogits panel; aliases bufs[L]
	var spent []T
	for l := L - 1; l >= 0; l-- {
		W, _ := layer(m, w, l)
		gW, gb := layer(m, dst, l)
		tensor.AddOuterPanel(gW, inv, delta, rows[l])
		tensor.Zero(gb)
		for e := 0; e < B; e++ {
			tensor.Axpy(inv, delta.Row(e), gb)
		}
		if l == 0 {
			break
		}
		// dL/d(activation of layer l-1): delta·W, then through tanh'.
		next := tensor.GetVec[T](B * m.offsets[l].in)
		D := tensor.MatView(next, B, m.offsets[l].in)
		tensor.MatMul(D, delta, W)
		h := bufs[l] // tanh outputs of layer l-1, same B×in layout
		for i, v := range next {
			next[i] = v * (1 - h[i]*h[i])
		}
		if spent != nil {
			tensor.PutVec(spent)
		}
		spent = next
		delta = D
	}
	if spent != nil {
		tensor.PutVec(spent)
	}
	for l := range bufs {
		tensor.PutVec(bufs[l])
	}
	return total * inv
}

// Predict writes each example's argmax class into dst.
func (m *Model) Predict(w []float64, batch []data.Example, dst []int) {
	if len(dst) != len(batch) {
		panic("mlp: Predict needs one label slot per example")
	}
	logits := make([]float64, m.sizes[len(m.sizes)-1])
	for e, ex := range batch {
		m.forward(w, ex.X, logits)
		dst[e] = tensor.ArgMax(logits)
	}
}
