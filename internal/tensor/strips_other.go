//go:build !amd64

package tensor

// No strips off amd64: hasAVX and hasAVX2 are constant false, stripSize
// and quantPrefix answer 0 and the generic bodies are the only path; these
// are never called.
const hasAVX, hasAVX2 = false, false

func matMulNT2x4[T Float](size int, out []T, stride int, x *[4][]T, w0, w1 []T, off0, off1 T, n int) {
}
func addOuter2x4[T Float](size int, r0, r1 []T, x *[4][]T, c *[8]T, write bool)       {}
func addOuter2xN[T Float](size int, r0, r1 []T, x *[4][]T, c *[8]T, n int)            {}
func matVec4x5[T Float](out []T, stride int, x *[4][]T, w, b []T, n int)              {}
func proxStep[T Float](size int, w, g, w0 []T, eta, mu T)                             {}
func maxAbsDiffF64(v, base []float64) float64                                         { return 0 }
func dequantizeBytesF64(out []float64, q []byte, base []float64, unit float64, s int) {}
func boxMullerF64(dst, a, b []float64)                                                {}
func quantizeBytesF64(dst []byte, v, base []float64, invUnit float64, s int, state uint64) uint64 {
	return 0
}
