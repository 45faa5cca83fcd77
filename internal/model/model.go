// Package model defines the interface between learning workloads and the
// federated optimization core.
//
// The paper's framework is model-agnostic: the server and local solvers
// only ever see a flat parameter vector w, a loss F_k(w), and a gradient
// ∇F_k(w). Keeping parameters flat makes the three operations the
// framework is built on trivial and uniform across workloads: server-side
// averaging of returned models, the proximal penalty (μ/2)·‖w − wᵗ‖², and
// the dissimilarity metric E_k‖∇F_k(w) − ∇f(w)‖².
package model

import (
	"fmt"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Model is a learning workload over flat parameter vectors.
//
// Implementations must be stateless with respect to parameters: every
// method takes w explicitly, so a single Model can be shared by all
// simulated devices concurrently.
type Model interface {
	// NumParams returns the length of the parameter vector.
	NumParams() int
	// InitParams returns a freshly initialized parameter vector.
	InitParams(rng *frand.Source) []float64
	// Loss returns the mean loss of w over the batch.
	Loss(w []float64, batch []data.Example) float64
	// Grad writes the mean gradient of the loss over the batch into dst
	// (overwriting it) and returns the mean loss. len(dst) must equal
	// NumParams.
	Grad(dst, w []float64, batch []data.Example) float64
	// Predict writes the predicted label of batch[e] into dst[e]; len(dst)
	// must equal len(batch). One call covers a shard's whole test split,
	// so a model can share its forward pass's scratch, or its kernel,
	// between examples.
	Predict(w []float64, batch []data.Example, dst []int)
}

// Model32 is the one width constraint left in the repository: a Model
// that can also compute its gradient in float32. linear and mlp satisfy
// it by instantiating the same generic body Grad runs at float64; a
// model without it (lstm) is float64-only, and a run at tensor.F32 over
// it is refused up front.
type Model32 interface {
	Model
	// InputDim is the length of every example's X.
	InputDim() int
	// Grad32 is Grad in float32: same batch, same mean gradient and
	// loss, up to float32 rounding. It reads the features from xs, xs[e]
	// being batch[e].X already narrowed (Narrow), and the labels from
	// batch, so a solve converts each example once, not once per epoch.
	Grad32(dst, w tensor.Vec32, batch []data.Example, xs [][]float32) float32
}

// Grad calls m's gradient at the width of dst and w: Grad for float64,
// which reads each X in place, and Grad32 over xs, the batch's narrowed
// rows, for float32 (m must then be a Model32). It is how the
// width-generic solver bodies reach a model.
func Grad[T tensor.Float](m Model, dst, w []T, batch []data.Example, xs [][]float32) T {
	if d32, ok := any(dst).([]float32); ok {
		return T(m.(Model32).Grad32(d32, any(w).([]float32), batch, xs))
	}
	return T(m.Grad(any(dst).([]float64), any(w).([]float64), batch))
}

// ExampleRows appends each example's X to rows and returns it: the rows
// a float64 batch kernel (tensor.MatMulNT, tensor.AddOuterPanel) reads
// in place. An X that is not dim long panics, before the caller has run
// a kernel or written a gradient.
func ExampleRows(rows [][]float64, batch []data.Example, dim int) [][]float64 {
	for e, ex := range batch {
		checkShape(e, ex, dim)
		rows = append(rows, ex.X)
	}
	return rows
}

// Narrow converts the examples' features to float32 into panel, a pooled
// len(examples)·dim vector the caller hands back with tensor.PutVec, and
// appends each example's row of it to rows: the xs Grad32 reads. A
// float32 solve narrows its training set once, here. An X that is not
// dim long panics, before the caller has stepped or written anything.
func Narrow(rows [][]float32, examples []data.Example, dim int) (_ [][]float32, panel []float32) {
	panel = tensor.GetVec[float32](len(examples) * dim)
	for e, ex := range examples {
		checkShape(e, ex, dim)
		row := panel[e*dim : (e+1)*dim]
		tensor.Convert(row, ex.X)
		rows = append(rows, row)
	}
	return rows, panel
}

func checkShape(e int, ex data.Example, dim int) {
	if len(ex.X) != dim {
		panic(fmt.Sprintf("model: shape mismatch: example %d has %d features, want %d", e, len(ex.X), dim))
	}
}
