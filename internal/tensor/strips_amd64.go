package tensor

import "unsafe"

// hasAVX gates the solve strips and hasAVX2 the byte quantiser's: set
// once from CPUID/XGETBV, never written again.
var hasAVX, hasAVX2 = cpuAVX()

func cpuAVX() (avx, avx2 bool)

// The strips (strips_amd64.s). Each takes element pointers and lengths,
// touches exactly the index range of the Go loop it stands in for, and
// checks nothing: shapes, d == 0 and empty batches are the callers'.

//go:noescape
func matMulNT2x4F64(out unsafe.Pointer, stride int, x0, x1, x2, x3, w0, w1 unsafe.Pointer, d int, off0, off1 float64, n int)

//go:noescape
func matMulNT2x4F32(out unsafe.Pointer, stride int, x0, x1, x2, x3, w0, w1 unsafe.Pointer, d int, off0, off1 float32, n int)

//go:noescape
func addOuter2x4F64(r0, r1, x0, x1, x2, x3 unsafe.Pointer, d int, c unsafe.Pointer, write bool)

//go:noescape
func addOuter2x4F32(r0, r1, x0, x1, x2, x3 unsafe.Pointer, d int, c unsafe.Pointer, write bool)

//go:noescape
func addOuter2xNF64(r0, r1, x0, x1, x2 unsafe.Pointer, d int, c unsafe.Pointer, n int)

//go:noescape
func addOuter2xNF32(r0, r1, x0, x1, x2 unsafe.Pointer, d int, c unsafe.Pointer, n int)

//go:noescape
func matVec4x5F64(out unsafe.Pointer, stride int, x0, x1, x2, x3, w unsafe.Pointer, d int, b unsafe.Pointer, n int)

//go:noescape
func proxStepF64(w, grad, w0 unsafe.Pointer, n int, eta, mu float64)

//go:noescape
func proxStepF32(w, grad, w0 unsafe.Pointer, n int, eta, mu float32)

// The byte quantiser's strips: float64 only, AVX2, over slices of one
// length, a positive multiple of four (quantPrefix's).

//go:noescape
func maxAbsDiffF64(v, base []float64) float64

//go:noescape
func quantizeBytesF64(dst []byte, v, base []float64, invUnit float64, s int, state uint64) uint64

//go:noescape
func dequantizeBytesF64(out []float64, q []byte, base []float64, unit float64, s int)

// boxMullerF64 stores Sqrt(−2·Log(a[i]))·Cos(2π·b[i]) in dst[i], with
// math's bits, for slices of one length, a positive multiple of four, with
// every a in [2⁻⁵³, 1] and every b in [0, 1) (AVX2; Normals' strip).
//
//go:noescape
func boxMullerF64(dst, a, b []float64)

// The wrappers below pick a strip by element size (see stripSize, which
// has already established that T is exactly float64 or float32, so the
// scalar conversions are identities). Slices are rows of at least the
// length the strip walks; x holds a block's four example rows, a ragged
// block's last one repeated, and c its coefficients, row 0's four then
// row 1's.

func ptr[T Float](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

// matMulNT2x4 stores the first n of the block's four examples' outputs,
// example e's stride elements after example e−1's.
func matMulNT2x4[T Float](size int, out []T, stride int, x *[4][]T, w0, w1 []T, off0, off1 T, n int) {
	if size == 8 {
		matMulNT2x4F64(ptr(out), stride, ptr(x[0]), ptr(x[1]), ptr(x[2]), ptr(x[3]), ptr(w0), ptr(w1), len(w0), float64(off0), float64(off1), n)
	} else {
		matMulNT2x4F32(ptr(out), stride, ptr(x[0]), ptr(x[1]), ptr(x[2]), ptr(x[3]), ptr(w0), ptr(w1), len(w0), float32(off0), float32(off1), n)
	}
}

// addOuter2x4 adds a full block to the two rows, or with write set
// stores it over them, added to +0.
func addOuter2x4[T Float](size int, r0, r1 []T, x *[4][]T, c *[8]T, write bool) {
	if size == 8 {
		addOuter2x4F64(ptr(r0), ptr(r1), ptr(x[0]), ptr(x[1]), ptr(x[2]), ptr(x[3]), len(r0), unsafe.Pointer(c), write)
	} else {
		addOuter2x4F32(ptr(r0), ptr(r1), ptr(x[0]), ptr(x[1]), ptr(x[2]), ptr(x[3]), len(r0), unsafe.Pointer(c), write)
	}
}

// addOuter2xN adds the block's first n < 4 examples to the two rows, one
// after another.
func addOuter2xN[T Float](size int, r0, r1 []T, x *[4][]T, c *[8]T, n int) {
	if size == 8 {
		addOuter2xNF64(ptr(r0), ptr(r1), ptr(x[0]), ptr(x[1]), ptr(x[2]), len(r0), unsafe.Pointer(c), n)
	} else {
		addOuter2xNF32(ptr(r0), ptr(r1), ptr(x[0]), ptr(x[1]), ptr(x[2]), len(r0), unsafe.Pointer(c), n)
	}
}

// matVec4x5 is float64 only (MatVecAdd4 asks for size 8): w is five rows
// of the examples' length back to back, b their biases, and the first n
// of the four examples are stored, example e's logits stride elements
// after example e−1's.
func matVec4x5[T Float](out []T, stride int, x *[4][]T, w, b []T, n int) {
	matVec4x5F64(ptr(out), stride, ptr(x[0]), ptr(x[1]), ptr(x[2]), ptr(x[3]), ptr(w), len(x[0]), ptr(b), n)
}

func proxStep[T Float](size int, w, g, w0 []T, eta, mu T) {
	if size == 8 {
		proxStepF64(ptr(w), ptr(g), ptr(w0), len(w), float64(eta), float64(mu))
	} else {
		proxStepF32(ptr(w), ptr(g), ptr(w0), len(w), float32(eta), float32(mu))
	}
}
