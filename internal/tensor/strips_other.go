//go:build !amd64

package tensor

// No strips off amd64: hasAVX is constant false, stripSize answers 0 and
// the generic bodies are the only path; these are never called.
const hasAVX = false

func matMulNT2x4[T Float](size int, out []T, stride int, a, w0, w1 []T, off0, off1 T) {}
func matMulNT2x1[T Float](size int, out, a, w0, w1 []T, off0, off1 T)                 {}
func addOuter2x4[T Float](size int, r0, r1, x []T, c *[8]T)                           {}
func addOuter2x1[T Float](size int, r0, r1, x []T, c0, c1 T)                          {}
func proxStep[T Float](size int, w, g, w0 []T, eta, mu T)                             {}
