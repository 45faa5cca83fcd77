package tensor

import "fedprox/internal/frand"

// Normals writes the next len(dst) values of rng.Norm() into dst, bit for
// bit, and leaves rng where those calls would. On amd64 with AVX2 it draws
// Norm's uniform pairs, in Norm's order, into stack blocks, and the strip
// computes Norm's formula four deviates at a time with math.Log's and
// math.Cos's own operations. The strip also takes the len(dst)%4 tail,
// its unused lanes padded with the pair (1, 0), whose deviate is 0.
// Other machines call Norm.
func Normals(dst []float64, rng *frand.Source) {
	if hasAVX2 {
		var a, b [256]float64
		for len(dst) > 0 {
			k := min(len(dst), len(a))
			drawPairs(a[:k], b[:k], rng)
			m := k &^ 3
			if m > 0 {
				boxMullerF64(dst[:m], a[:m], b[:m])
			}
			if m < k { // k < len(a), so the padded lanes fit
				var t [4]float64
				copy(a[k:m+4], []float64{1, 1, 1})
				clear(b[k : m+4])
				boxMullerF64(t[:], a[m:m+4], b[m:m+4])
				copy(dst[m:k], t[:])
			}
			dst = dst[k:]
		}
	}
	for i := range dst {
		dst[i] = rng.Norm()
	}
}

// drawPairs fills a and b with Norm's uniforms, pair by pair, in a loop of
// its own (written inside Normals' loop it measured 6% slower). The state
// is a local copy of *rng but not a register: r.Float64() takes the
// local's address, so every draw stores it to the stack and reloads it
// (go tool objdump shows the pair). A rewrite that keeps the state in a
// register measured no faster.
func drawPairs(a, b []float64, rng *frand.Source) {
	b = b[:len(a)]
	r := *rng
	for i := range a {
		a[i] = 1 - r.Float64()
		b[i] = r.Float64()
	}
	*rng = r
}
