// Package tensor provides the dense vector and matrix kernels that every
// model and solver in this repository is built on.
//
// All state lives in flat slices. Matrices are row-major views over a
// flat slice, which lets a whole model's parameters occupy one
// contiguous vector — the representation the federated server aggregates,
// and the representation the proximal term ‖w − wᵗ‖² is computed over.
//
// The kernels on the solve and wire hot path (Dot, SqDist, Axpy, the
// batch kernels, CrossEntropySoftmax, the vector pool) are written once
// over [T Float]; Go stencils one copy per width, so float32 and
// float64 run the same loops in the same accumulation order. Everything
// the protocol itself computes with — aggregation, evaluation, the
// interfaces between packages — is float64 (Vec).
//
// # Assembly strips
//
// Four loops also exist as hand-written AVX assembly on amd64
// (strips_amd64.s). Three are the ones a profile of a local solve names,
// at both widths: the two-weight-row inner loop of MatMulNT against a
// block of four examples (one or two of them in a narrower loop), the
// two-destination-row inner loops of AddOuterPanel — a block of four,
// written over the rows on a batch's first block, and the one to three
// examples left over, added one after another in one pass — and
// ProxStep. The batch kernels take their examples as rows, each read in
// place through its own pointer, so a gradient gathers nothing into a
// panel and, since AddOuterPanel writes, zeroes nothing but its biases.
// The fourth is the one a profile of an evaluation names, at float64
// only: MatVecAdd4's five weight rows against four examples, one example
// per lane. Three more — the ones a profile of a codec round names —
// exist as AVX2 assembly at float64 only, against a non-nil base: quant.go's
// MaxAbsDiff, QuantizeBytes and DequantizeBytes. The one a profile of the
// image surrogates' set-up names is AVX2 too: Normals (normals.go), whose
// Go body is a loop of frand.Source.Norm and whose strip follows math.Log's
// amd64 assembly and math.Cos's Go body step for step, four lanes at once.
// Nothing else has assembly, and no assembly lives outside this package.
//
// The generic Go bodies are the specification. A strip performs, element
// by element, exactly the multiplies, adds and subtracts its Go loop
// performs, in that loop's order, each rounded on its own — AVX packed and
// scalar arithmetic only, never a fused multiply-add, which rounds once
// where the Go loop rounds twice. So a strip's results are the Go loop's
// bit for bit (±0, subnormals, infinities and the NaNs they produce
// included), every golden, baseline and cross-executor parity value in
// the repository holds on either path, and speed is the only difference.
// A strip takes pointers and lengths and touches exactly the index range
// its Go loop touches; shape checks, empty batches and zero-length rows
// never reach one. The quantiser's strips take the multiple-of-four prefix
// of a vector and the Go loop finishes the tail in the same order.
//
// QuantizeBytes draws from a frand.Source, once per coordinate in index
// order, and frand stays the definition of that stream: SplitMix64 is
// counter-based (draw i is mix(state + i·γ)), so the strip makes four
// draws in four lanes and leaves the Source at state + n·γ, where n scalar
// draws would — the tail, the next encode, a stream restored from a
// checkpoint continue the same sequence.
//
// Which path runs is decided inside the generic function: stripSize
// asserts the slice to []float64 or []float32 and consults hasAVX (and
// quantPrefix and Normals hasAVX2), set once at init from CPUID and
// XGETBV. There is no flag, environment variable, build tag or exported
// switch; other architectures, and amd64 parts without AVX (AVX2), run
// the Go bodies alone. The oracle test needs no switch either:
// TestStripsMatchGenericBits instantiates the same generic functions over
// locally defined float64- and float32-based types, which fail that
// assertion and so take the Go loop, and compares the two paths' whole
// operand arenas (canaries around every operand included) with
// math.Float64bits and math.Float32bits (Normals' row: the strip against
// Norm's formula computed by package math, in the same arenas).
//
// The Go bodies round every product and sum separately only as long as
// the compiler does not fuse them itself. On amd64 that is the default
// (GOAMD64=v1), which is what every committed golden was captured at;
// building with GOAMD64=v3 lets the compiler fuse multiply-adds in the Go
// bodies — the loops without strips, and the oracle — and those values
// then differ from the goldens whether or not the strips exist.
package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// Float is the set of arithmetic widths the kernels are stencilled for.
type Float interface{ ~float32 | ~float64 }

// Vec is a dense float64 vector.
type Vec = []float64

// Vec32 is a dense float32 vector.
type Vec32 = []float32

// Precision selects the arithmetic width of the device-side hot path
// (local solve, γ-probe, codec encode/decode). The zero value is float64
// — the historical default — so Precision is omittable everywhere it
// appears (configs, wire Specs, gob snapshots).
type Precision string

const (
	// F64 is full-width execution, the default.
	F64 Precision = ""
	// F32 runs the local solve and the wire in float32; every value
	// crosses back to float64 (exactly) before it leaves the solver or
	// the codec, so aggregation math stays f64.
	F32 Precision = "f32"
)

// Precisions lists the supported precision names in negotiation form
// (the fednet Hello offer vocabulary). The zero Precision is spelled
// "f64" on the wire.
func Precisions() []string { return []string{"f64", "f32"} }

// ParsePrecision maps a flag/wire spelling to a Precision. "" and "f64"
// both mean full width.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "f64":
		return F64, nil
	case "f32":
		return F32, nil
	}
	return F64, fmt.Errorf("tensor: unknown precision %q (want f64 or f32)", s)
}

// Validate rejects anything but the two supported widths.
func (p Precision) Validate() error {
	_, err := ParsePrecision(string(p))
	return err
}

// String spells the zero value as "f64".
func (p Precision) String() string {
	if p == F64 {
		return "f64"
	}
	return string(p)
}

// Clone returns a copy of v.
func Clone(v Vec) Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to 0.
func Zero[T Float](v []T) {
	for i := range v {
		v[i] = 0
	}
}

// Convert copies src into dst element-wise at dst's width — the one
// crossing between the two widths. Widening is exact; narrowing rounds
// to nearest, and is exact too for values that were widened from
// float32, which is what lets float64 interfaces carry an f32 path's
// values without changing a bit.
func Convert[D, S Float](dst []D, src []S) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: Convert length mismatch %d vs %d", len(dst), len(src)))
	}
	if same, ok := any(src).([]D); ok { // one width: nothing to convert
		copy(dst, same)
		return
	}
	// Unrolled: the convert narrows every example of an f32 batched
	// gradient into its panel, where the loop-carried bounds checks
	// otherwise cost as much as the conversions.
	i := 0
	for ; i+4 <= len(src); i += 4 {
		s := src[i : i+4 : i+4]
		d := dst[i : i+4 : i+4]
		d[0] = D(s[0])
		d[1] = D(s[1])
		d[2] = D(s[2])
		d[3] = D(s[3])
	}
	for ; i < len(src); i++ {
		dst[i] = D(src[i])
	}
}

// Converted returns src at width D in a pooled vector (hand back with
// PutVec when not retained).
func Converted[D, S Float](src []S) []D {
	dst := GetVec[D](len(src))
	Convert(dst, src)
	return dst
}

// Dot returns the inner product of a and b. It panics on length
// mismatch. Four independent accumulators keep the multiply-adds
// pipelined instead of serialized on one register's latency chain.
func Dot[T Float](a, b []T) T {
	mustSameLen(a, b)
	var s0, s1, s2, s3 T
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns the Euclidean norm of v, accumulated at v's width and
// finished in float64.
func Norm2[T Float](v []T) float64 {
	return math.Sqrt(float64(Dot(v, v)))
}

// SqDist returns ‖a − b‖², the squared Euclidean distance — the quantity
// scaled by μ/2 in the FedProx subproblem.
func SqDist[T Float](a, b []T) T {
	mustSameLen(a, b)
	var s0, s1 T
	i := 0
	for ; i+2 <= len(a); i += 2 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		s0 += d0 * d0
		s1 += d1 * d1
	}
	if i < len(a) {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1
}

// Axpy computes y ← y + alpha·x in place.
func Axpy[T Float](alpha T, x, y []T) {
	mustSameLen(x, y)
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xx, yy := x[i:i+4:i+4], y[i:i+4:i+4]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// Scale computes v ← alpha·v in place.
func Scale(alpha float64, v Vec) {
	for i := range v {
		v[i] *= alpha
	}
}

// Sub computes dst ← a − b. dst may alias a or b.
func Sub(dst, a, b Vec) {
	mustSameLen(a, b)
	mustSameLen(dst, a)
	for i := range a {
		dst[i] = a[i] - b[i]
	}
}

// AddScaled computes dst ← a + alpha·b. dst may alias a or b.
func AddScaled(dst, a Vec, alpha float64, b Vec) {
	mustSameLen(a, b)
	mustSameLen(dst, a)
	for i := range a {
		dst[i] = a[i] + alpha*b[i]
	}
}

// Mean computes the arithmetic mean of the vectors in vs into dst.
// It panics if vs is empty or lengths differ.
func Mean(dst Vec, vs []Vec) {
	if len(vs) == 0 {
		panic("tensor: Mean of no vectors")
	}
	Zero(dst)
	for _, v := range vs {
		Axpy(1, v, dst)
	}
	Scale(1/float64(len(vs)), dst)
}

// WeightedMean computes dst ← Σᵢ wᵢ·vsᵢ / Σᵢ wᵢ, the weighted model average
// used by the paper's second sampling scheme. It panics if the weights are
// empty, mismatched, or sum to a non-positive value.
func WeightedMean(dst Vec, vs []Vec, ws []float64) {
	if len(vs) == 0 || len(vs) != len(ws) {
		panic("tensor: WeightedMean with mismatched inputs")
	}
	total := 0.0
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		panic("tensor: WeightedMean with non-positive total weight")
	}
	Zero(dst)
	for i, v := range vs {
		Axpy(ws[i]/total, v, dst)
	}
}

// Softmax writes the softmax of logits into dst (which may alias logits),
// using the max-subtraction trick for numerical stability.
func Softmax(dst, logits Vec) {
	mustSameLen(dst, logits)
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// LogSumExp returns log Σ exp(v_i), stabilized. A term whose x − max is
// 0 adds exactly math.Exp(0) = 1 without the call; ±Inf and NaN terms
// (Inf − Inf is NaN, not 0) still go through Exp.
func LogSumExp(v Vec) float64 {
	max := v[0]
	for _, x := range v[1:] {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for _, x := range v {
		if d := x - max; d == 0 {
			sum++
		} else {
			sum += math.Exp(d)
		}
	}
	return max + math.Log(sum)
}

// CrossEntropySoftmax writes the stable softmax of logits into probs
// (which may alias logits) and returns the cross-entropy loss −log p_y.
// One exp pass serves both outputs, where LogSumExp followed by Softmax
// exponentiates every logit twice.
func CrossEntropySoftmax[T Float](probs, logits []T, y int) T {
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	ly := logits[y] // read before probs, which may alias logits, is written
	var sum T
	for i, v := range logits {
		e := T(math.Exp(float64(v - max)))
		probs[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range probs {
		probs[i] *= inv
	}
	return T(math.Log(float64(sum))) + max - ly
}

// ArgMax returns the index of the largest element of v.
func ArgMax(v Vec) int {
	best := 0
	for i, x := range v {
		if x > v[best] {
			best = i
		}
	}
	_ = v[best]
	return best
}

// Sigmoid returns 1/(1+e^−x), saturating gracefully at the float64 limits.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Tanh returns the hyperbolic tangent of x.
func Tanh[T Float](x T) T { return T(math.Tanh(float64(x))) }

func mustSameLen[T Float](a, b []T) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: length mismatch %d vs %d", len(a), len(b)))
	}
}

// Matrix is a dense row-major matrix view over a flat vector.
type Matrix[T Float] struct {
	Rows, Cols int
	Data       []T // len == Rows*Cols
}

// Mat is the float64 Matrix, the width every interface between packages
// uses.
type Mat = Matrix[float64]

// NewMat returns a zero matrix of the given shape backed by fresh storage.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// MatView wraps an existing slice as a rows×cols matrix. It panics if the
// slice has the wrong length.
func MatView[T Float](data []T, rows, cols int) Matrix[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: MatView %dx%d over %d elements", rows, cols, len(data)))
	}
	return Matrix[T]{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m Matrix[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Matrix[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a view (mutations are visible in m).
func (m Matrix[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MatVec computes dst ← M·x. It panics on shape mismatch.
func MatVec(dst Vec, m Mat, x Vec) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("tensor: MatVec shape mismatch")
	}
	n := len(x) // m.Cols, spelled so that the row reads below go unchecked
	i := 0
	// Four rows per pass, one accumulator each: a row's sum keeps its
	// left-to-right order (so every logit is the bits it always was), but
	// four independent chains hide the add latency one chain waits out,
	// and each x[j] is loaded once for four rows.
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1, r2, r3 := m.Row(i)[:n], m.Row(i + 1)[:n], m.Row(i + 2)[:n], m.Row(i + 3)[:n]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		s := 0.0
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MatVecAdd computes dst ← M·x + b.
func MatVecAdd(dst Vec, m Mat, x, b Vec) {
	MatVec(dst, m, x)
	Axpy(1, b, dst)
}

// MatVecAdd4 is MatVecAdd for up to four examples at once, each read in
// place: dst[e·M.Rows+i] ← (Σ_j M[i][j]·xs[e][j]) + b[i] for every e <
// len(xs), each sum from +0 left to right with every product and add
// rounded on its own — MatVecAdd's bits exactly. Every shape, each
// example's length included, is checked before any example is read.
func MatVecAdd4[T Float](dst []T, m Matrix[T], xs [][]T, b []T) {
	n, d := len(xs), m.Cols
	if n > 4 || len(dst) != n*m.Rows || len(b) != m.Rows {
		panic(fmt.Sprintf("tensor: MatVecAdd4 shape mismatch: %d examples, %d outputs, %d biases for %dx%d", n, len(dst), len(b), m.Rows, d))
	}
	if n == 0 {
		return
	}
	// A ragged block repeats its last example in the lanes nobody stores.
	var x [4][]T
	for e := range x {
		x[e] = xs[min(e, n-1)]
		if len(x[e]) != d {
			panic(fmt.Sprintf("tensor: MatVecAdd4 shape mismatch: example %d has %d features, want %d", e, len(x[e]), d))
		}
	}
	if stripSize(m.Data, d) == 8 && m.Rows >= 5 { // five rows a strip
		for i := 0; i < m.Rows; i += 5 {
			s := min(i, m.Rows-5) // the last strip may redo rows, to the same bits
			matVec4x5(dst[s:], m.Rows, &x, m.Data[s*d:(s+5)*d], b[s:s+5], n)
		}
		return
	}
	x0, x1, x2, x3 := x[0][:d], x[1][:d], x[2][:d], x[3][:d]
	for i := 0; i < m.Rows; i++ {
		var s0, s1, s2, s3 T
		for j, v := range m.Row(i)[:d] {
			s0 += v * x0[j]
			s1 += v * x1[j]
			s2 += v * x2[j]
			s3 += v * x3[j]
		}
		sums := [4]T{s0, s1, s2, s3}
		for e := 0; e < n; e++ {
			dst[e*m.Rows+i] = sums[e] + b[i]
		}
	}
}

// AddOuter computes M ← M + alpha·(y xᵀ), the rank-one update that backs
// every weight-matrix gradient in this repository.
func AddOuter(m Mat, alpha float64, y, x Vec) {
	if len(y) != m.Rows || len(x) != m.Cols {
		panic("tensor: AddOuter shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		ayi := alpha * y[i]
		if ayi == 0 {
			continue
		}
		for j := range row {
			row[j] += ayi * x[j]
		}
	}
}

// The batch kernels below are what let the linear and mlp gradients walk
// a whole minibatch per call: every weight row streams past the batch's
// examples four at a time, instead of re-entering a per-example GEMV with
// cold accumulators. Each example is a row of its own, read in place
// wherever it lives, so nothing is gathered into a panel first; every
// row's length is checked before any row is read.

// checkRows panics unless every example in xs is d long.
func checkRows[T Float](kernel string, xs [][]T, d int) {
	for e, x := range xs {
		if len(x) != d {
			panic(fmt.Sprintf("tensor: %s shape mismatch: example %d has %d features, want %d", kernel, e, len(x), d))
		}
	}
}

// block fills x with the four examples from e on and returns how many of
// them are the batch's: a ragged last block repeats its last example in
// the lanes nobody stores.
func block[T Float](x *[4][]T, xs [][]T, e int) int {
	n := min(4, len(xs)-e)
	for k := range x {
		x[k] = xs[e+min(k, n-1)]
	}
	return n
}

// MatMulNT computes dst ← X·Wᵀ (+ bias broadcast over rows when bias is
// non-nil): dst is B×C, xs holds the B examples, each w.Cols long, and w
// is the C×D weight matrix. This is the batched forward pass — each pair
// of weight rows is streamed against every example before moving on, so
// it is read from cache once per block of four examples but fetched once.
func MatMulNT[T Float](dst Matrix[T], xs [][]T, w Matrix[T], bias []T) {
	d := w.Cols
	if dst.Rows != len(xs) || dst.Cols != w.Rows {
		panic("tensor: MatMulNT shape mismatch")
	}
	if bias != nil && len(bias) != w.Rows {
		panic("tensor: MatMulNT bias length mismatch")
	}
	checkRows("MatMulNT", xs, d)
	size := stripSize(w.Data, d)
	i := 0
	// Register-block two weight rows per pass: each example element is
	// loaded once and feeds both rows' accumulators, halving the example
	// traffic per output relative to row-at-a-time dots.
	for ; i+2 <= w.Rows; i += 2 {
		w0, w1 := w.Row(i)[:d], w.Row(i + 1)[:d]
		var off0, off1 T
		if bias != nil {
			off0, off1 = bias[i], bias[i+1]
		}
		if size != 0 { // assembly strips: the loop below, four examples abreast
			var x [4][]T
			for e := 0; e < len(xs); e += 4 {
				n := block(&x, xs, e)
				out := dst.Data[e*dst.Cols+i : (e+n-1)*dst.Cols+i+2] // first to last element written
				matMulNT2x4(size, out, dst.Cols, &x, w0, w1, off0, off1, n)
			}
			continue
		}
		for e, x := range xs {
			ar := x[:d]
			var s0, s1, t0, t1 T
			k := 0
			for ; k+4 <= d; k += 4 {
				aa, u0, u1 := ar[k:k+4:k+4], w0[k:k+4:k+4], w1[k:k+4:k+4]
				s0 += aa[0]*u0[0] + aa[2]*u0[2]
				t0 += aa[1]*u0[1] + aa[3]*u0[3]
				s1 += aa[0]*u1[0] + aa[2]*u1[2]
				t1 += aa[1]*u1[1] + aa[3]*u1[3]
			}
			for ; k < d; k++ {
				a0 := ar[k]
				s0 += a0 * w0[k]
				s1 += a0 * w1[k]
			}
			out := dst.Row(e)
			out[i] = s0 + t0 + off0
			out[i+1] = s1 + t1 + off1
		}
	}
	if i < w.Rows {
		wr := w.Row(i)
		var off T
		if bias != nil {
			off = bias[i]
		}
		for e, x := range xs {
			dst.Data[e*dst.Cols+i] = Dot(x, wr) + off
		}
	}
}

// MatMul computes dst ← a·b: dst is B×N, a is B×M, b is M×N. Used by
// the batched backward pass to push a delta panel through Wᵀ… spelled as
// row-panel axpys so the inner loop is contiguous in both b and dst.
func MatMul[T Float](dst, a, b Matrix[T]) {
	if dst.Rows != a.Rows || a.Cols != b.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
	for e := 0; e < a.Rows; e++ {
		out := dst.Row(e)
		Zero(out)
		ar := a.Row(e)
		for i, c := range ar {
			if c != 0 {
				Axpy(c, b.Row(i), out)
			}
		}
	}
}

// AddOuterPanel writes m ← alpha·(yᵀ·X), the batched rank-B
// generalization of AddOuter: m is C×D, y is the B×C coefficient panel
// (one softmax/delta row per example) and xs holds the B examples, each D
// long. m's old contents are never read, yet every element has the bits
// it would have had if m were zeroed and the examples' terms then added
// to it — the first block's sum is added to +0, which turns a −0 sum into
// +0 as a zeroed element would — so a gradient needs no Zero pass first.
func AddOuterPanel[T Float](m Matrix[T], alpha T, y Matrix[T], xs [][]T) {
	bn, d := len(xs), m.Cols
	if y.Rows != bn || m.Rows != y.Cols {
		panic("tensor: AddOuterPanel shape mismatch")
	}
	checkRows("AddOuterPanel", xs, d)
	if bn == 0 {
		Zero(m.Data)
		return
	}
	yc := y.Cols
	size := stripSize(m.Data, d)
	i := 0
	// Register-block two destination rows and four examples per pass. The
	// naive form is a read-modify-write on a weight row per example — one
	// store per multiply-add, which is what bounds the kernel. Folding
	// four examples' contributions into each destination element before it
	// is written back cuts the store traffic 4x while every stream (both
	// rows, all four example rows) stays sequential. The one to three
	// examples a batch leaves over take one more pass, added one after
	// another in batch order.
	var x [4][]T
	var c [8]T // a block's coefficients, row 0's four then row 1's
	for ; i+2 <= m.Rows; i += 2 {
		r0, r1 := m.Row(i)[:d], m.Row(i + 1)[:d]
		for e := 0; e < bn; e += 4 {
			n := block(&x, xs, e)
			for k := 0; k < n; k++ {
				c[k], c[4+k] = alpha*y.Data[(e+k)*yc+i], alpha*y.Data[(e+k)*yc+i+1]
			}
			if size != 0 && n == 4 {
				addOuter2x4(size, r0, r1, &x, &c, e == 0)
				continue
			}
			if e == 0 { // the loops below add to the rows
				Zero(r0)
				Zero(r1)
			}
			switch {
			case size != 0:
				addOuter2xN(size, r0, r1, &x, &c, n)
			case n == 4:
				x0, x1, x2, x3 := x[0][:d], x[1][:d], x[2][:d], x[3][:d]
				c00, c01, c02, c03 := c[0], c[1], c[2], c[3]
				c10, c11, c12, c13 := c[4], c[5], c[6], c[7]
				for k := 0; k < d; k++ {
					xv0, xv1, xv2, xv3 := x0[k], x1[k], x2[k], x3[k]
					r0[k] += c00*xv0 + c01*xv1 + c02*xv2 + c03*xv3
					r1[k] += c10*xv0 + c11*xv1 + c12*xv2 + c13*xv3
				}
			default:
				for k := 0; k < d; k++ {
					v0, v1 := r0[k], r1[k]
					for j, xj := range x[:n] {
						v0 += c[j] * xj[k]
						v1 += c[4+j] * xj[k]
					}
					r0[k], r1[k] = v0, v1
				}
			}
		}
	}
	if i < m.Rows {
		row := m.Row(i)
		Zero(row)
		for e, x := range xs {
			if c := alpha * y.Data[e*yc+i]; c != 0 {
				Axpy(c, x, row)
			}
		}
	}
}

// ProxStep performs w ← w − η·(g + μ·(w − w0)) in place: one FedProx
// subproblem step with no correction term. g and w0 must be at least as
// long as w.
func ProxStep[T Float](w, g, w0 []T, eta, mu T) {
	g, w0 = g[:len(w)], w0[:len(w)]
	if size := stripSize(w, len(w)); size != 0 {
		proxStep(size, w, g, w0, eta, mu)
		return
	}
	for i := range w {
		w[i] -= eta * (g[i] + mu*(w[i]-w0[i]))
	}
}

// stripSize returns the element size of the assembly strips that serve a
// kernel over v with inner length d — 8 for []float64, 4 for []float32 —
// or 0 when the generic Go loop must run: no AVX, nothing to walk, or an
// element type that merely has float64 or float32 underneath (the strip
// tests' oracle).
func stripSize[T Float](v []T, d int) int {
	if !hasAVX || d == 0 {
		return 0
	}
	switch any(v).(type) {
	case []float64:
		return 8
	case []float32:
		return 4
	}
	return 0
}

// vecPool recycles scratch across the hot per-dispatch paths (solver
// parameters and gradients, the f32 example panel, logits, codec scratch,
// decoded views, broadcast copies). Those vectors come in a few sizes per
// run — model-sized ones and much smaller ones — so the pool keeps one
// sync.Pool per power-of-two capacity class: GetVec(n) takes from the
// class of the smallest power of two ≥ n, and a fresh vector has that
// power's capacity; PutVec files a vector under the largest power of two
// ≤ its capacity. Whatever GetVec finds is long enough, and no request
// drops a vector that was too short for it. Steady-state allocation is
// then O(model), independent of how many dispatches a run serves — the
// property the DeviceDispatch allocs/op gate holds.
type vecPool struct {
	vecs [bits.UintSize]sync.Pool // *[]T boxes, by capacity class
	// boxes recycles the *[]T boxes themselves: storing a slice in a
	// sync.Pool needs a heap box for the header, and allocating a fresh
	// box per PutVec would put one allocation right back on the path the
	// pool exists to clear. Boxes shuttle between the two pools instead.
	boxes sync.Pool
}

// pools holds one pool per width, so float32 and float64 buffers never
// mix capacities.
var pools [2]vecPool

func poolOf[T Float]() *vecPool {
	var z T
	return &pools[unsafe.Sizeof(z)/8]
}

// GetVec returns a length-n vector with unspecified contents. Callers
// must fully overwrite it (or Zero it) before reading. The vector may
// be handed to PutVec when the caller is done; never Put a vector that
// something else still references.
func GetVec[T Float](n int) []T {
	class := bits.Len(uint(max(n, 1) - 1)) // 2^class ≥ n
	pool := poolOf[T]()
	if p, ok := pool.vecs[class].Get().(*[]T); ok {
		v := *p
		*p = nil
		pool.boxes.Put(p)
		return v[:n]
	}
	return make([]T, n, 1<<class)
}

// poisonPuts is a test mode (go test -tags poolpoison sets it): PutVec
// fills what it is handed with NaNs, so a read after a Put breaks the
// bit-parity test running over it instead of some later run.
var poisonPuts bool

// PutVec returns a vector to the pool. The caller must not touch v
// afterwards. Put only vectors with exclusive ownership — a slice that
// escaped into a retained structure (a link's prev shadow, a caller's
// parameters) must be dropped to the garbage collector instead. A vector
// handed over, as a Reply hands its solution to the coordinator, is the
// receiver's to Put.
func PutVec[T Float](v []T) {
	if cap(v) == 0 {
		return
	}
	v = v[:cap(v)]
	if poisonPuts {
		for i := range v {
			v[i] = T(math.NaN())
		}
	}
	pool := poolOf[T]()
	p, ok := pool.boxes.Get().(*[]T)
	if !ok {
		p = new([]T)
	}
	*p = v
	pool.vecs[bits.Len(uint(cap(v)))-1].Put(p) // 2^class ≤ cap(v)
}
