package tensor

import (
	"math"

	"fedprox/internal/frand"
)

// The byte quantiser: the loops comm's qsgd codec runs per coordinate at
// its default width, where a level is one byte. A base (the link's
// previously delivered vector) is nil, meaning zeros, or as long as v.

// RoundLevel stochastically rounds t — to ⌊t⌋+1 with probability t − ⌊t⌋,
// else ⌊t⌋: one rng draw, unbiased — clamps the level to [−s, s] and returns
// it offset-binary. It is the rounding step of every width of the quantiser.
func RoundLevel(t float64, s int, rng *frand.Source) uint32 {
	f := math.Floor(t)
	q := int(f)
	if rng.Float64() < t-f {
		q++
	}
	return uint32(min(max(q, -s), s) + s)
}

// quantPrefix returns how many leading elements of v the AVX2 strips take:
// len(v) &^ 3 for a []float64 on a CPU with AVX2, else 0.
func quantPrefix[T Float](v []T) int {
	if !hasAVX2 || stripSize(v, len(v)) != 8 {
		return 0
	}
	return len(v) &^ 3
}

// f64 is v[:k] as the []float64 quantPrefix has found it to be.
func f64[T Float](v []T, k int) []float64 { return any(v).([]float64)[:k] }

// MaxAbsDiff returns max |v[i] − base[i]|, or 0 for an empty v. A NaN
// difference is skipped, not propagated.
func MaxAbsDiff[T Float](v, base []T) T {
	var m T
	if base == nil {
		for _, x := range v {
			if a := T(math.Abs(float64(x))); a > m {
				m = a
			}
		}
		return m
	}
	base = base[:len(v)]
	if k := quantPrefix(v); k > 0 {
		m = T(maxAbsDiffF64(f64(v, k), f64(base, k)))
		v, base = v[k:], base[k:]
	}
	for i, x := range v {
		if a := T(math.Abs(float64(x - base[i]))); a > m {
			m = a
		}
	}
	return m
}

// QuantizeBytes stores RoundLevel((v[i] − base[i])·invUnit, s, rng) in
// dst[i], one draw per coordinate in index order. s is at most 127 and the
// scaled differences are NaN, ±Inf or within int32 (comm's are in [−s, s]).
func QuantizeBytes[T Float](dst []byte, v, base []T, invUnit T, s int, rng *frand.Source) {
	dst = dst[:len(v)]
	r := *rng // in a register for the loop, not a load and store per draw
	if base == nil {
		for i, x := range v {
			dst[i] = byte(RoundLevel(float64(x*invUnit), s, &r))
		}
	} else {
		base = base[:len(v)]
		if k := quantPrefix(v); k > 0 {
			r = *frand.New(quantizeBytesF64(dst, f64(v, k), f64(base, k), float64(invUnit), s, r.State()))
			dst, v, base = dst[k:], v[k:], base[k:]
		}
		for i, x := range v {
			dst[i] = byte(RoundLevel(float64((x-base[i])*invUnit), s, &r))
		}
	}
	*rng = r
}

// DequantizeBytes writes T(q[i] − s)·unit + base[i] to out[i]. The
// conversion around the product forbids the fused multiply-add arm64 would
// otherwise be free to emit: every architecture rounds twice, as the strip.
func DequantizeBytes[T Float](out []T, q []byte, base []T, unit T, s int) {
	q = q[:len(out)]
	if base == nil {
		for i, b := range q {
			out[i] = T(int(b)-s) * unit
		}
		return
	}
	base = base[:len(out)]
	if k := quantPrefix(out); k > 0 {
		dequantizeBytesF64(f64(out, k), q, f64(base, k), float64(unit), s)
		out, q, base = out[k:], q[k:], base[k:]
	}
	for i, b := range q {
		out[i] = T(T(int(b)-s)*unit) + base[i]
	}
}
