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
func matMulNT2x4F64(out unsafe.Pointer, stride int, a, w0, w1 unsafe.Pointer, d int, off0, off1 float64)

//go:noescape
func matMulNT2x1F64(out, a, w0, w1 unsafe.Pointer, d int, off0, off1 float64)

//go:noescape
func matMulNT2x4F32(out unsafe.Pointer, stride int, a, w0, w1 unsafe.Pointer, d int, off0, off1 float32)

//go:noescape
func matMulNT2x1F32(out, a, w0, w1 unsafe.Pointer, d int, off0, off1 float32)

//go:noescape
func addOuter2x4F64(r0, r1, x unsafe.Pointer, d int, c unsafe.Pointer)

//go:noescape
func addOuter2x1F64(r0, r1, x unsafe.Pointer, d int, c0, c1 float64)

//go:noescape
func addOuter2x4F32(r0, r1, x unsafe.Pointer, d int, c unsafe.Pointer)

//go:noescape
func addOuter2x1F32(r0, r1, x unsafe.Pointer, d int, c0, c1 float32)

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
// length the strip walks; a 2x4 strip's a or x is four rows back to back.

func ptr[T Float](s []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(s)) }

func matMulNT2x4[T Float](size int, out []T, stride int, a, w0, w1 []T, off0, off1 T) {
	if size == 8 {
		matMulNT2x4F64(ptr(out), stride, ptr(a), ptr(w0), ptr(w1), len(w0), float64(off0), float64(off1))
	} else {
		matMulNT2x4F32(ptr(out), stride, ptr(a), ptr(w0), ptr(w1), len(w0), float32(off0), float32(off1))
	}
}

func matMulNT2x1[T Float](size int, out, a, w0, w1 []T, off0, off1 T) {
	if size == 8 {
		matMulNT2x1F64(ptr(out), ptr(a), ptr(w0), ptr(w1), len(w0), float64(off0), float64(off1))
	} else {
		matMulNT2x1F32(ptr(out), ptr(a), ptr(w0), ptr(w1), len(w0), float32(off0), float32(off1))
	}
}

func addOuter2x4[T Float](size int, r0, r1, x []T, c *[8]T) {
	if size == 8 {
		addOuter2x4F64(ptr(r0), ptr(r1), ptr(x), len(r0), unsafe.Pointer(c))
	} else {
		addOuter2x4F32(ptr(r0), ptr(r1), ptr(x), len(r0), unsafe.Pointer(c))
	}
}

func addOuter2x1[T Float](size int, r0, r1, x []T, c0, c1 T) {
	if size == 8 {
		addOuter2x1F64(ptr(r0), ptr(r1), ptr(x), len(r0), float64(c0), float64(c1))
	} else {
		addOuter2x1F32(ptr(r0), ptr(r1), ptr(x), len(r0), float32(c0), float32(c1))
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
