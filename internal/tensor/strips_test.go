package tensor

import (
	"math"
	"testing"
	"unsafe"

	"fedprox/internal/frand"
)

// ref64 and ref32 instantiate the same generic bodies as float64 and
// float32 — same shape, same compiled loops — but a []ref64 is not a
// []float64, so stripSize answers 0 for them and the Go loop runs: the
// oracle and the strips run side by side in one process, with no switch.
type (
	ref64 float64
	ref32 float32
)

// bitsOf is v's IEEE bit pattern at its own width.
func bitsOf[T Float](v T) uint64 {
	if unsafe.Sizeof(v) == 8 {
		return math.Float64bits(float64(v))
	}
	return uint64(math.Float32bits(float32(v)))
}

const canary = -98765.4321

// arena lays operands out in one backing array of canaries, every
// operand starting at an odd index (so no vector load or store is
// aligned) with canaries either side. Two arenas filled by the same
// takes hold the same values at the same indices, so comparing them
// whole after a kernel ran on each checks the results, that the inputs
// were not written, and that nothing either side of any operand was.
type arena[T Float] struct {
	buf []T
	off int
}

func newArena[T Float](n int) *arena[T] {
	a := &arena[T]{buf: make([]T, n)}
	for i := range a.buf {
		a.buf[i] = T(canary)
	}
	return a
}

func (a *arena[T]) take(vals []float64) []T {
	a.off += 3 + a.off%2 // ≥ 3 canaries, then an odd start
	s := a.buf[a.off : a.off+len(vals) : a.off+len(vals)]
	for i, v := range vals {
		s[i] = T(v)
	}
	a.off += len(vals)
	return s
}

// sameBits reports whether the two arenas hold the same bits, logging the
// first index where they do not.
func sameBits[T, R Float](t *testing.T, what string, got []T, want []R) bool {
	t.Helper()
	for i := range got {
		if g, w := bitsOf(got[i]), bitsOf(want[i]); g != w {
			t.Errorf("%s: arena[%d] = %v (%#x), generic body has %v (%#x)", what, i, got[i], g, want[i], w)
			return false
		}
	}
	return true
}

// operand draws n values for a strip test. kind 0 is standard normals;
// kind 1 mixes in ±0 and subnormals of both widths; kind 2 adds ±Inf
// (and with them the NaNs that Inf − Inf and 0·Inf produce downstream);
// kind 3 is negative normals, which times a +0 coefficient give −0.
func operand(rng *frand.Source, n, kind int) []float64 {
	v := rng.NormVec(make([]float64, n), 0, 1)
	if kind == 3 {
		for i := range v {
			v[i] = -math.Abs(v[i])
		}
		return v
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e-40, -1e-45, math.Inf(1), math.Inf(-1)}
	if kind == 1 {
		specials = specials[:6]
	}
	for i := 0; kind > 0 && i < n; i += 1 + rng.Intn(4) {
		v[i] = specials[rng.Intn(len(specials))]
	}
	return v
}

var (
	stripDims    = []int{1, 3, 4, 5, 7, 8, 9, 13, 784}
	stripBatches = []int{1, 3, 4, 5, 8, 10}
	stripRows    = []int{1, 2, 3, 10}
	// outerBatches leave one, two and three examples over, both as the
	// whole batch (the rows' first block) and after full blocks.
	outerBatches = []int{1, 2, 3, 4, 5, 7, 8, 10}
)

// stripTable names, per kernel, the assembly strips its case drives (CI
// checks that every TEXT symbol in the package is listed here or is the
// CPUID stub) and the case at each width (nil where the kernel has no
// strip at that width).
var stripTable = []struct {
	kernel   string
	strips   []string
	f64, f32 func(*testing.T)
}{
	{"MatMulNT", []string{"matMulNT2x4F64", "matMulNT2x4F32"},
		matMulNTBits[float64, ref64], matMulNTBits[float32, ref32]},
	{"AddOuterPanel", []string{"addOuter2x4F64", "addOuter2xNF64", "addOuter2x4F32", "addOuter2xNF32"},
		addOuterPanelBits[float64, ref64], addOuterPanelBits[float32, ref32]},
	{"MatVecAdd4", []string{"matVec4x5F64"}, matVecAdd4Bits[float64, ref64], nil},
	{"ProxStep", []string{"proxStepF64", "proxStepF32"},
		proxStepBits[float64, ref64], proxStepBits[float32, ref32]},
	{"ByteQuantizer", []string{"maxAbsDiffF64", "quantizeBytesF64", "dequantizeBytesF64"}, byteQuantizerBits, nil},
	{"Normals", []string{"boxMullerF64"}, normalsBits, nil},
}

// TestStripsMatchGenericBits runs every kernel that has assembly strips
// on []float64/[]float32 (strips) and on []ref64/[]ref32 (the generic Go
// body) over identical arenas and requires the arenas to come out
// bit-identical: zero differing bits in any result, any input, any
// canary.
func TestStripsMatchGenericBits(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this machine: the generic bodies are the only path, there is nothing to compare")
	}
	if stripSize([]float64{1}, 1) != 8 || stripSize([]float32{1}, 1) != 4 || stripSize([]ref64{1}, 1) != 0 || stripSize([]ref32{1}, 1) != 0 {
		t.Fatal("stripSize must pick strips for float64/float32 and the Go loop for the ref types")
	}
	for _, c := range stripTable {
		t.Logf("%s drives %v", c.kernel, c.strips)
		t.Run(c.kernel+"/f64", c.f64)
		if c.f32 != nil {
			t.Run(c.kernel+"/f32", c.f32)
		}
	}
}

// exampleRows takes bn examples of d values from both arenas, each its
// own operand with canaries either side, and returns them last taken
// first: no example sits where the one before it in the batch ends, or
// even after it, so a kernel must read every row through its own pointer.
func exampleRows[T, R Float](at *arena[T], ar *arena[R], rng *frand.Source, bn, d, kind int) ([][]T, [][]R) {
	xt, xr := make([][]T, bn), make([][]R, bn)
	for e := bn - 1; e >= 0; e-- {
		x := operand(rng, d, kind)
		xt[e], xr[e] = at.take(x), ar.take(x)
	}
	return xt, xr
}

func matMulNTBits[T, R Float](t *testing.T) {
	rng := frand.New(7)
	for _, d := range stripDims {
		for _, bn := range stripBatches {
			for _, rows := range stripRows {
				for kind := 0; kind < 3; kind++ {
					for _, withBias := range []bool{false, true} {
						n := bn*(d+4) + rows*d + rows + bn*rows + 32
						at, ar := newArena[T](n), newArena[R](n)
						xt, xr := exampleRows(at, ar, rng, bn, d, kind)
						w, b, out := operand(rng, rows*d, kind), operand(rng, rows, kind), make([]float64, bn*rows)
						wt, bt, ot := at.take(w), at.take(b), at.take(out)
						wr, br, or := ar.take(w), ar.take(b), ar.take(out)
						if !withBias {
							bt, br = nil, nil
						}
						MatMulNT(MatView(ot, bn, rows), xt, MatView(wt, rows, d), bt)
						MatMulNT(MatView(or, bn, rows), xr, MatView(wr, rows, d), br)
						if !sameBits(t, "MatMulNT", at.buf, ar.buf) {
							t.Fatalf("at d=%d batch=%d rows=%d kind=%d bias=%v", d, bn, rows, kind, withBias)
						}
					}
				}
			}
		}
	}
}

// addOuterPanelBits: AddOuterPanel writes the rows — the arena's old
// values there are random, never zeroed — over every full block and every
// leftover group. Kind 3 makes every term −0 (a +0 coefficient times a
// negative example), so each sum the first block computes is −0, and the
// rows must come out +0, as on rows zeroed first.
func addOuterPanelBits[T, R Float](t *testing.T) {
	rng := frand.New(8)
	for _, d := range stripDims {
		for _, bn := range outerBatches {
			for _, rows := range stripRows {
				for kind := 0; kind < 4; kind++ {
					n := bn*(d+4) + rows*d + bn*rows + 32
					at, ar := newArena[T](n), newArena[R](n)
					xt, xr := exampleRows(at, ar, rng, bn, d, kind)
					m, y := operand(rng, rows*d, min(kind, 2)), operand(rng, bn*rows, kind)
					if kind == 3 {
						y = make([]float64, bn*rows)
					}
					mt, yt := at.take(m), at.take(y)
					mr, yr := ar.take(m), ar.take(y)
					AddOuterPanel(MatView(mt, rows, d), T(0.1), MatView(yt, bn, rows), xt)
					AddOuterPanel(MatView(mr, rows, d), R(0.1), MatView(yr, bn, rows), xr)
					if !sameBits(t, "AddOuterPanel", at.buf, ar.buf) {
						t.Fatalf("at d=%d batch=%d rows=%d kind=%d", d, bn, rows, kind)
					}
					for i := range mt {
						if kind == 3 && bitsOf(mt[i]) != 0 {
							t.Fatalf("d=%d batch=%d rows=%d: element %d of a −0 sum is %v (%#x), want +0", d, bn, rows, i, mt[i], bitsOf(mt[i]))
						}
					}
				}
			}
		}
	}
}

// matVecAdd4Bits walks a batch of examples, each its own operand in the
// arena, through MatVecAdd4 four at a time as linear's Loss does, so the
// ragged last block and the row counts that make the last five-row strip
// overlap (9, 11) or leave the Go loop alone (< 5) are all covered.
func matVecAdd4Bits[T, R Float](t *testing.T) {
	rng := frand.New(13)
	for _, d := range stripDims {
		for _, bn := range append([]int{0}, stripBatches...) {
			for _, rows := range append([]int{4, 9, 11}, stripRows...) {
				for kind := 0; kind < 3; kind++ {
					n := bn*(d+4) + rows*d + rows + bn*rows + 32
					at, ar := newArena[T](n), newArena[R](n)
					xt, xr := make([][]T, bn), make([][]R, bn)
					for e := range xt {
						x := operand(rng, d, kind)
						xt[e], xr[e] = at.take(x), ar.take(x)
					}
					w, b, out := operand(rng, rows*d, kind), operand(rng, rows, kind), make([]float64, bn*rows)
					wt, bt, ot := at.take(w), at.take(b), at.take(out)
					wr, br, or := ar.take(w), ar.take(b), ar.take(out)
					for e := 0; e < bn; e += 4 {
						k := min(e+4, bn)
						MatVecAdd4(ot[e*rows:k*rows], MatView(wt, rows, d), xt[e:k], bt)
						MatVecAdd4(or[e*rows:k*rows], MatView(wr, rows, d), xr[e:k], br)
					}
					if !sameBits(t, "MatVecAdd4", at.buf, ar.buf) {
						t.Fatalf("at d=%d batch=%d rows=%d kind=%d", d, bn, rows, kind)
					}
				}
			}
		}
	}
}

func proxStepBits[T, R Float](t *testing.T) {
	rng := frand.New(9)
	for _, n := range append([]int{0, 7850}, stripDims...) {
		for kind := 0; kind < 3; kind++ {
			for _, mu := range []float64{0, 0.5} {
				at, ar := newArena[T](3*n+32), newArena[R](3*n+32)
				w, g, w0 := operand(rng, n, kind), operand(rng, n, kind), operand(rng, n, kind)
				wt, gt, w0t := at.take(w), at.take(g), at.take(w0)
				wr, gr, w0r := ar.take(w), ar.take(g), ar.take(w0)
				ProxStep(wt, gt, w0t, T(0.03), T(mu))
				ProxStep(wr, gr, w0r, R(0.03), R(mu))
				if !sameBits(t, "ProxStep", at.buf, ar.buf) {
					t.Fatalf("at n=%d kind=%d mu=%v", n, kind, mu)
				}
			}
		}
	}
}

// quantOperands draws a vector and its base for the byte quantiser's
// strips. Kinds 0–2 are operand's (a base plus a small step; ±0 and
// subnormals; ±Inf, and NaNs put in by hand); 3 is v = base, a scale of 0;
// 4 has integer differences in [−s, s], which under a scale of s land
// exactly on a level (t − f = 0); 5 has subnormal differences, so s/scale
// overflows and every t is ±Inf or NaN.
func quantOperands(rng *frand.Source, n, kind, s int) (v, base []float64) {
	base = operand(rng, n, min(kind, 2))
	v = make([]float64, n)
	for i := range v {
		switch kind {
		case 0:
			v[i] = base[i] + 0.01*rng.Norm()
		case 1, 2:
			v[i] = base[i]
			if rng.Intn(3) > 0 {
				v[i] = operand(rng, 1, kind)[0]
			}
			if kind == 2 && rng.Intn(8) == 0 {
				v[i] = math.NaN()
			}
		case 3:
			v[i] = base[i]
		case 4:
			base[i] = float64(rng.IntRange(-1000, 1000))
			v[i] = base[i] + float64(rng.IntRange(-s, s))
			if i == 0 {
				v[i] = base[i] + float64(s)
			}
		case 5:
			base[i] = 0
			v[i] = 5e-324 * float64(rng.IntRange(-40, 40))
		}
	}
	return v, base
}

const (
	quantLevels = 127 // s at 8 bits
	byteCanary  = 0xa5
)

// canaried returns a byte buffer of canaries and the n-byte window at an
// odd offset inside it.
func canaried(n int) (buf, window []byte) {
	buf = make([]byte, n+16)
	for i := range buf {
		buf[i] = byteCanary
	}
	return buf, buf[5 : 5+n : 5+n]
}

var quantLens = []int{0, 1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 7850}

// byteQuantizerBits drives the byte quantiser's three loops the way comm's
// codec chains them — the maximum sets the scale, the scale the quantiser's
// invUnit and the dequantiser's unit — on []float64 (strips) and []ref64
// (the Go loops): the maxima, the level bytes and their canaries, the
// rounding stream's final state and the whole operand arenas must agree
// bit for bit.
func byteQuantizerBits(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine: the Go loops are the quantiser's only path")
	}
	t.Run("stream continuity", quantizeStreamContinuity)
	rng := frand.New(11)
	const s = quantLevels
	for _, n := range quantLens {
		for kind := 0; kind < 6; kind++ {
			at, ar := newArena[float64](3*n+32), newArena[ref64](3*n+32)
			v, base := quantOperands(rng, n, kind, s)
			vt, bt, ot := at.take(v), at.take(base), at.take(make([]float64, n))
			vr, br, or := ar.take(v), ar.take(base), ar.take(make([]float64, n))

			scale, want := MaxAbsDiff(vt, bt), MaxAbsDiff(vr, br)
			if bitsOf(scale) != bitsOf(want) {
				t.Fatalf("MaxAbsDiff n=%d kind=%d: %v, generic body has %v", n, kind, scale, want)
			}
			if kind == 3 && scale != 0 || kind == 5 && n > 8 && !math.IsInf(quantLevels/scale, 1) {
				t.Fatalf("n=%d kind=%d: scale %v is not the case the kind is for", n, kind, scale)
			}
			invUnit := 1.0 // what a zero scale leaves nothing to divide
			if scale != 0 {
				invUnit = s / scale
			}
			const state = 0xfeedface
			st, sr := frand.New(state), frand.New(state)
			buft, qt := canaried(n)
			bufr, qr := canaried(n)
			QuantizeBytes(qt, vt, bt, invUnit, s, st)
			QuantizeBytes(qr, vr, br, ref64(invUnit), s, sr)
			if string(buft) != string(bufr) || st.State() != sr.State() {
				t.Fatalf("QuantizeBytes n=%d kind=%d: bytes %v state %#x, generic body has %v, %#x", n, kind, buft, st.State(), bufr, sr.State())
			}
			// Every byte value, not just the ones this vector rounded to.
			for i := range qt {
				if i%2 == 1 {
					qt[i] = byte(rng.Intn(256))
				}
			}
			DequantizeBytes(ot, qt, bt, scale/s, s)
			DequantizeBytes(or, qt, br, ref64(scale/s), s)
			if !sameBits(t, "quantiser", at.buf, ar.buf) {
				t.Fatalf("at n=%d kind=%d", n, kind)
			}
		}
	}
}

// quantizeStreamContinuity: the quantiser's strip makes frand.Source's
// draws, in order, and hands the stream back where a Source that made them
// would be. Its first draws are pinned against Source.Float64 itself — a
// coordinate equal to its own draw must not round up (r < r is false), the
// next float64 above it must — and for every split point k the strip on
// [0, k) followed by the Go loop on [k, n) gives the bytes and the final
// state of the Go loop on [0, n).
func quantizeStreamContinuity(t *testing.T) {
	const s, state, n = quantLevels, 0x5eed, 37
	src := frand.New(state)
	draws, above, zeros := make([]float64, 8), make([]float64, 8), make([]float64, 8)
	for i := range draws {
		draws[i] = src.Float64()
		above[i] = math.Nextafter(draws[i], 2)
	}
	for up, v := range [][]float64{draws, above} {
		st, q := frand.New(state), make([]byte, len(v))
		QuantizeBytes(q, v, zeros, 1, s, st)
		for i, b := range q {
			if int(b) != s+up {
				t.Fatalf("draw %d: level %d for a coordinate %d ulp above frand's draw %v, want %d", i, int(b)-s, up, draws[i], up)
			}
		}
		if st.State() != src.State() {
			t.Fatalf("stream at %#x after %d draws, frand.Source is at %#x", st.State(), len(v), src.State())
		}
	}

	rng := frand.New(12)
	for kind := 0; kind < 6; kind++ {
		v, base := quantOperands(rng, n, kind, s)
		invUnit := 1.0
		if scale := MaxAbsDiff(v, base); scale != 0 {
			invUnit = s / scale
		}
		vr, br := make([]ref64, n), make([]ref64, n)
		for i := range v {
			vr[i], br[i] = ref64(v[i]), ref64(base[i])
		}
		want, wantSt := make([]byte, n), frand.New(state)
		QuantizeBytes(want, vr, br, ref64(invUnit), s, wantSt)
		for k := 0; k <= n; k++ {
			got, st := make([]byte, n), frand.New(state)
			QuantizeBytes(got[:k], v[:k], base[:k], invUnit, s, st)
			QuantizeBytes(got[k:], vr[k:], br[k:], ref64(invUnit), s, st)
			if string(got) != string(want) || st.State() != wantSt.State() {
				t.Fatalf("kind %d split at %d: bytes %v state %#x, one Go loop has %v, %#x", kind, k, got, st.State(), want, wantSt.State())
			}
		}
	}
}

// normalPairs returns the (a, b) pairs the Box–Muller strip is held to:
// every a that steers Log's frexp and √2/2 fold (1, the two smallest
// powers of two Norm can draw, 0.5, √2/2 and its neighbours, 1 − 2⁻⁵³)
// against every b within 8 ulps of an octant edge k/8 of Cos, and then
// random pairs as Norm draws them, half with a scaled down by a random
// power of two so that every exponent Log can see is reached.
func normalPairs(rng *frand.Source) (as, bs []float64) {
	edgeA := []float64{1, 0x1p-53, 0x1p-52, 0.5, math.Sqrt2 / 2, math.Nextafter(math.Sqrt2/2, 0), math.Nextafter(math.Sqrt2/2, 1), 1 - 0x1p-53}
	edgeB := []float64{1 - 0x1p-53}
	for k := 0; k <= 8; k++ {
		for d := -8; d <= 8; d++ {
			if k == 0 && d < 0 {
				continue
			}
			if b := math.Float64frombits(math.Float64bits(float64(k)/8) + uint64(d)); b < 1 {
				edgeB = append(edgeB, b)
			}
		}
	}
	for _, a := range edgeA {
		for _, b := range edgeB {
			as, bs = append(as, a), append(bs, b)
		}
	}
	for i := 0; i < 100000; i++ {
		a := 1 - rng.Float64()
		if i%2 == 1 {
			a = max(math.Ldexp(a, -rng.Intn(53)), 0x1p-53)
		}
		as, bs = append(as, a), append(bs, rng.Float64())
	}
	for len(as)%4 != 0 { // the strip's lengths are multiples of four
		as, bs = append(as, 1), append(bs, 0)
	}
	return as, bs
}

// normalsBits holds boxMullerF64 to frand.Source.Norm's formula, computed
// by package math in Go, on normalPairs in canaried arenas.
func normalsBits(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2 on this machine: Norm is Normals' only path")
	}
	as, bs := normalPairs(frand.New(14))
	n := len(as)
	st, sr := newArena[float64](3*n+32), newArena[float64](3*n+32) // strip, reference
	at, bt, dt := st.take(as), st.take(bs), st.take(make([]float64, n))
	ar, br, dr := sr.take(as), sr.take(bs), sr.take(make([]float64, n))
	boxMullerF64(dt, at, bt)
	for i := range dr {
		dr[i] = math.Sqrt(-2*math.Log(ar[i])) * math.Cos(2*math.Pi*br[i])
	}
	for i := range dt {
		if bitsOf(dt[i]) != bitsOf(dr[i]) {
			t.Fatalf("a = %v (%#x), b = %v (%#x): strip %v (%#x), math %v (%#x)", as[i], bitsOf(as[i]), bs[i], bitsOf(bs[i]), dt[i], bitsOf(dt[i]), dr[i], bitsOf(dr[i]))
		}
	}
	sameBits(t, "Normals", st.buf, sr.buf) // the canaries
}

// TestMatVecMatchesSequential: the four-row MatVec gives every row the
// bits of a plain left-to-right dot product, through the four-row block
// and its remainder, and MatVecAdd4 gives every logit of one to four
// examples that dot plus the bias, on whichever path this machine runs.
func TestMatVecMatchesSequential(t *testing.T) {
	rng := frand.New(10)
	for rows := 1; rows <= 11; rows++ {
		for _, d := range []int{1, 3, 4, 7, 60} {
			for kind := 0; kind < 3; kind++ {
				m := MatView(operand(rng, rows*d, kind), rows, d)
				b := operand(rng, rows, kind)
				xs := [][]float64{operand(rng, d, kind), operand(rng, d, kind), operand(rng, d, kind), operand(rng, d, kind)}
				dot := func(i int, x Vec) float64 {
					s := 0.0
					for j, v := range m.Row(i) {
						s += v * x[j]
					}
					return s
				}
				dst := make(Vec, rows)
				MatVec(dst, m, xs[0])
				for i := range dst {
					if want := dot(i, xs[0]); math.Float64bits(dst[i]) != math.Float64bits(want) {
						t.Fatalf("MatVec %dx%d kind %d row %d = %v, sequential dot is %v", rows, d, kind, i, dst[i], want)
					}
				}
				for n := 1; n <= 4; n++ {
					logits := make(Vec, n*rows)
					MatVecAdd4(logits, m, xs[:n], b)
					for e, x := range xs[:n] {
						for i := 0; i < rows; i++ {
							if got, want := logits[e*rows+i], dot(i, x)+b[i]; math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("MatVecAdd4 %dx%d kind %d, %d examples: logit %d of example %d = %v, sequential dot plus bias is %v", rows, d, kind, n, i, e, got, want)
							}
						}
					}
				}
			}
		}
	}
}
