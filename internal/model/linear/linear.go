// Package linear implements multinomial logistic regression — the convex
// workload the paper uses for the synthetic suite, MNIST, and FEMNIST
// ("we study a convex classification problem ... using multinomial
// logistic regression", Section 5.1).
//
// Parameters are laid out flat as [W row-major (classes×dim) | b
// (classes)]. The loss is mean softmax cross-entropy; the gradient is the
// standard (p − onehot(y)) ⊗ x form, accumulated a minibatch at a time.
package linear

import (
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Model is a softmax classifier with dense inputs.
type Model struct {
	// Dim is the input feature dimension.
	Dim int
	// Classes is the number of labels.
	Classes int
}

var _ model.Model32 = (*Model)(nil)

// New returns a multinomial logistic regression model.
func New(dim, classes int) *Model {
	if dim <= 0 || classes <= 1 {
		panic("linear: invalid shape")
	}
	return &Model{Dim: dim, Classes: classes}
}

// ForDataset returns a model sized for a dense federated dataset.
func ForDataset(f *data.Federated) *Model {
	if f.FeatureDim == 0 {
		panic("linear: dataset is not dense")
	}
	return New(f.FeatureDim, f.NumClasses)
}

// NumParams returns classes·dim + classes.
func (m *Model) NumParams() int { return m.Classes*m.Dim + m.Classes }

// InitParams returns a zero parameter vector. Zero init is the standard
// (and convex-optimal-agnostic) choice for logistic regression and matches
// a shared starting point w⁰ across all methods.
func (m *Model) InitParams(rng *frand.Source) []float64 {
	return make([]float64, m.NumParams())
}

// split returns the weight-matrix and bias views of w.
func split[T tensor.Float](m *Model, w []T) (tensor.Matrix[T], []T) {
	W := tensor.MatView(w[:m.Classes*m.Dim], m.Classes, m.Dim)
	return W, w[m.Classes*m.Dim:]
}

// forward hands fn each example's logits in batch order, computed four
// examples at a time by tensor.MatVecAdd4 with every X read in place;
// logits is pooled scratch, valid until fn returns.
func (m *Model) forward(w []float64, batch []data.Example, fn func(e int, logits []float64)) {
	W, b := split(m, w)
	buf := tensor.GetVec[float64](4 * m.Classes)
	var xs [4][]float64
	for e := 0; e < len(batch); e += 4 {
		blk := batch[e:min(e+4, len(batch))]
		for k, ex := range blk {
			xs[k] = ex.X
		}
		tensor.MatVecAdd4(buf[:len(blk)*m.Classes], W, xs[:len(blk)], b)
		for k := range blk {
			fn(e+k, buf[k*m.Classes:(k+1)*m.Classes])
		}
	}
	tensor.PutVec(buf)
}

// Loss returns mean cross-entropy over the batch.
func (m *Model) Loss(w []float64, batch []data.Example) float64 {
	if len(batch) == 0 {
		return 0
	}
	total := 0.0
	m.forward(w, batch, func(e int, logits []float64) {
		total += tensor.LogSumExp(logits) - logits[batch[e].Y]
	})
	return total / float64(len(batch))
}

// Grad writes the mean cross-entropy gradient into dst and returns the
// mean loss.
func (m *Model) Grad(dst, w []float64, batch []data.Example) float64 {
	var rows [64][]float64 // up to 64 examples' row headers live on the stack
	return grad(m, dst, w, batch, model.ExampleRows(rows[:0], batch, m.Dim))
}

// InputDim implements model.Model32.
func (m *Model) InputDim() int { return m.Dim }

// Grad32 implements model.Model32.
func (m *Model) Grad32(dst, w tensor.Vec32, batch []data.Example, xs [][]float32) float32 {
	return grad(m, dst, w, batch, xs)
}

// grad is the batched gradient at either width over xs, the batch's
// feature rows (at float64 the examples' X read in place, at float32
// their narrowed copies): the forward pass is one X·Wᵀ multiply, softmax
// and loss share a single exp pass per example, and the weight gradient
// takes each of its rows across the whole batch while the row is hot
// (AddOuterPanel). AddOuterPanel writes the weight block, so only the
// bias block is zeroed.
func grad[T tensor.Float](m *Model, dst, w []T, batch []data.Example, xs [][]T) T {
	if len(dst) != m.NumParams() {
		panic("linear: gradient buffer size mismatch")
	}
	if len(batch) == 0 {
		tensor.Zero(dst)
		return 0
	}
	B := len(batch)
	W, b := split(m, w)
	gW, gb := split(m, dst)

	pbuf := tensor.GetVec[T](B * m.Classes)
	P := tensor.MatView(pbuf, B, m.Classes)

	tensor.MatMulNT(P, xs, W, b) // logits panel
	var total T
	for e, ex := range batch {
		row := P.Row(e)
		total += tensor.CrossEntropySoftmax(row, row, ex.Y)
		row[ex.Y] -= 1 // p − onehot(y)
	}
	inv := 1 / T(B)
	tensor.AddOuterPanel(gW, inv, P, xs)
	tensor.Zero(gb)
	for e := 0; e < B; e++ {
		tensor.Axpy(inv, P.Row(e), gb)
	}
	tensor.PutVec(pbuf)
	return total * inv
}

// Predict writes each example's argmax over class logits into dst.
func (m *Model) Predict(w []float64, batch []data.Example, dst []int) {
	if len(dst) != len(batch) {
		panic("linear: Predict needs one label slot per example")
	}
	m.forward(w, batch, func(e int, logits []float64) { dst[e] = tensor.ArgMax(logits) })
}
