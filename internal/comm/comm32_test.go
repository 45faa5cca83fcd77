package comm

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// testVec32 is testVec rounded to float32-representable values — what an
// f32 link's inputs are in a deployment, so its codec narrows them
// exactly.
func testVec32(n int, seed uint64) []float64 {
	v := testVec(n, seed)
	for i, x := range v {
		v[i] = float64(float32(x))
	}
	return v
}

// mustCodec32 is mustCodec at Precision f32.
func mustCodec32(t *testing.T, s Spec) Codec {
	t.Helper()
	s.Precision = tensor.F32
	return mustCodec(t, s)
}

// TestLevelStreamRoundTrip drives the level writer/reader pair across
// both packing regimes — radix (bits 2 and 3) and shift/mask bit-packing
// (4, 5, 8, 11, 16; the codec itself bypasses the stream at 8) — at counts
// chosen to land on, before, and after the radix group boundaries
// (groups of 40 at 2 bits, 22 at 3).
func TestLevelStreamRoundTrip(t *testing.T) {
	for _, width := range []int{2, 3, 4, 5, 8, 11, 16} {
		maxLevel := uint32(2 * levels(width)) // offset-binary range [0, 2s]
		for _, n := range []int{1, 2, 21, 22, 23, 39, 40, 41, 44, 80, 257} {
			rng := frand.New(uint64(width*1000 + n))
			vals := make([]uint32, n)
			for i := range vals {
				vals[i] = uint32(rng.Intn(int(maxLevel) + 1))
			}
			buf := make([]byte, packedLen(n, width))
			w := newLevelWriter(buf, width)
			for _, v := range vals {
				w.put(v)
			}
			w.finish()
			r := newLevelReader(buf, width, n)
			for i, want := range vals {
				if got := r.next(); got != want {
					t.Fatalf("width %d n %d index %d: got %d want %d", width, n, i, got, want)
				}
			}
		}
	}
}

// TestByteFastPathMatchesBitPacking pins the quantizer's byte-aligned
// loops — at 8 bits encode and decode run straight over Packed — to a
// reference written here from putBits/getBits at the same width: the
// payload bytes, the rounding stream's position afterwards and every
// decoded value must agree bit for bit, at both arithmetic widths, or a
// mixed-version fleet (one side on the byte loops, one not) would disagree
// about the stream. Widths 4 (shift/mask) and 3 (radix) ride the same
// table so the level-stream path the other widths take stays held to the
// same reference.
func TestByteFastPathMatchesBitPacking(t *testing.T) {
	clamp := testVec(64, 5)
	for i := range clamp { // every third coordinate sits at ±scale
		if i%3 == 0 {
			clamp[i] = float64(1-2*(i%2)) * 8
		}
	}
	vectors := []struct {
		name string
		v    []float64
	}{
		{"n=0", nil},
		{"n=1", testVec(1, 1)},
		{"n=7", testVec(7, 2)},
		{"n=1000", testVec(1000, 3)},
		{"all zero", make([]float64, 33)},
		{"at ±scale", clamp},
	}
	for _, bits := range []int{8, 4, 3} {
		for _, tc := range vectors {
			checkAgainstReference[float64](t, bits, tc.name, tc.v)
			checkAgainstReference[float32](t, bits, tc.name, tc.v)
		}
	}
}

// checkAgainstReference encodes and decodes v on a width-T qsgd link and
// compares with the reference quantizer below, run on a copy of the
// link's rounding stream.
func checkAgainstReference[T tensor.Float](t *testing.T, bits int, name string, v []float64) {
	t.Helper()
	spec := Spec{Name: "qsgd", Bits: bits, Seed: 17}
	if _, f32 := any(T(0)).(float32); f32 {
		spec.Precision = tensor.F32
	}
	c := mustCodec(t, spec)
	before, err := snapshotCodec(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := frand.New(before.RNG)
	want, scale, decoded := referenceQSGD(tensor.Converted[T](v), bits, rng)

	u := c.Encode(v, nil)
	after, _ := snapshotCodec(c)
	if u.Scale != float64(scale) || !bytes.Equal(u.Packed, want) {
		t.Errorf("%d bits, %T, %s: payload differs from the reference", bits, scale, name)
	}
	if after.RNG != rng.State() {
		t.Errorf("%d bits, %T, %s: rounding stream at %#x after encode, reference at %#x", bits, scale, name, after.RNG, rng.State())
	}
	got, err := c.Decode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(decoded) {
		t.Fatalf("%d bits, %T, %s: decoded %d values, want %d", bits, scale, name, len(got), len(decoded))
	}
	for i, w := range decoded {
		if math.Float64bits(got[i]) != math.Float64bits(float64(w)) {
			t.Fatalf("%d bits, %T, %s: decoded[%d] = %v, reference %v", bits, scale, name, i, got[i], w)
		}
	}
}

// referenceQSGD is the quantizer spelled out one level at a time: the
// max-magnitude scale, one stochastic rounding draw per coordinate
// (none for an all-zero vector), the level clamped to [−s, s] and stored
// offset-binary — with putBits at the bit-packed widths, through the level
// stream at the radix ones — then read back (getBits) and rescaled.
func referenceQSGD[T tensor.Float](v []T, bits int, rng *frand.Source) (packed []byte, scale T, decoded []T) {
	s := levels(bits)
	for _, x := range v {
		if x < 0 {
			x = -x
		}
		if x > scale {
			scale = x
		}
	}
	packed = make([]byte, packedLen(len(v), bits))
	decoded = make([]T, len(v))
	if scale == 0 {
		return packed, scale, decoded
	}
	invUnit := T(s) / scale
	w := newLevelWriter(packed, bits)
	for i, x := range v {
		tt := float64(x * invUnit)
		f := math.Floor(tt)
		q := int(f)
		if rng.Float64() < tt-f {
			q++
		}
		if q < -s {
			q = -s
		}
		if q > s {
			q = s
		}
		if bits > maxRadixBits {
			putBits(packed, i*bits, bits, uint32(q+s))
		} else {
			w.put(uint32(q + s))
		}
	}
	w.finish()
	unit := scale / T(s)
	r := newLevelReader(packed, bits, len(v))
	for i := range decoded {
		var q uint32
		if bits > maxRadixBits {
			q = getBits(packed, i*bits, bits)
		} else {
			q = r.next()
		}
		decoded[i] = T(int(q)-s) * unit
	}
	return packed, scale, decoded
}

// TestQSGD32RoundTrip checks the f32 quantizer against the same error
// bound the f64 one carries (‖v−decode‖∞ ≤ scale/s), and that its
// payload round-trips through Decode.
func TestQSGD32RoundTrip(t *testing.T) {
	for _, bits := range []int{2, 3, 4, 8, 16} {
		v := testVec32(257, uint64(bits))
		enc := mustCodec32(t, Spec{Name: "qsgd", Bits: bits, Seed: 5})
		dec := mustCodec32(t, Spec{Name: "qsgd", Bits: bits, Seed: 5})
		u := enc.Encode(v, nil)
		if !u.F32 {
			t.Fatal("the f32 encoder did not mark the update f32")
		}
		got, err := dec.Decode(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		var scale float64
		for _, x := range v {
			if a := math.Abs(x); a > scale {
				scale = a
			}
		}
		unit := scale / float64(levels(bits))
		for i := range v {
			if got[i] != float64(float32(got[i])) {
				t.Fatalf("bits %d index %d: decoded %v is not float32-representable", bits, i, got[i])
			}
			if d := math.Abs(v[i] - got[i]); d > unit+1e-6 {
				t.Fatalf("bits %d index %d: |%v - %v| = %g exceeds unit %g", bits, i, v[i], got[i], d, unit)
			}
		}
	}
}

// TestQSGDCrossWidthDecode documents that the level payload is
// width-agnostic: an update quantized from f64 decodes on the f32 side
// and vice versa, to the same reconstruction up to a float32 rounding
// of the scale.
func TestQSGDCrossWidthDecode(t *testing.T) {
	v64 := testVec(129, 3)
	enc := mustCodec(t, Spec{Name: "qsgd", Bits: 8, Seed: 7})
	u := enc.Encode(v64, nil)

	dec32 := mustCodec32(t, Spec{Name: "qsgd", Bits: 8, Seed: 7})
	got32, err := dec32.Decode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec64 := mustCodec(t, Spec{Name: "qsgd", Bits: 8, Seed: 7})
	got64, err := dec64.Decode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got64 {
		if d := math.Abs(got32[i] - got64[i]); d > 1e-5*math.Abs(got64[i])+1e-7 {
			t.Fatalf("index %d: f32 decode %v vs f64 decode %v", i, got32[i], got64[i])
		}
	}
}

// TestQSGD32Deterministic: same seed, same input → byte-identical
// payload, the property the coordinator's view reconstruction depends
// on.
func TestQSGD32Deterministic(t *testing.T) {
	v := testVec32(200, 8)
	a := mustCodec32(t, Spec{Name: "qsgd", Bits: 4, Seed: 21}).Encode(v, nil)
	b := mustCodec32(t, Spec{Name: "qsgd", Bits: 4, Seed: 21}).Encode(v, nil)
	if !bytes.Equal(a.Packed, b.Packed) || a.Scale != b.Scale {
		t.Fatal("same seed and input produced different payloads")
	}
}

// TestF32PathRejections: the sparsifier has no f32 path — both the
// codec constructor and the spec validation must say so, because a
// silent fall back to f64 would change the wire format mid-link.
func TestF32PathRejections(t *testing.T) {
	if _, err := (Spec{Name: "topk", Precision: tensor.F32}).ForDevice(Uplink, 0); err == nil {
		t.Fatal("ForDevice built a topk codec at f32")
	}
	if err := (Spec{Name: "topk", Precision: tensor.F32}).Validate(); err == nil {
		t.Fatal("Validate accepted a topk spec at f32")
	}
	if err := (Spec{Name: "raw", Precision: "f16"}).Validate(); err == nil {
		t.Fatal("Validate accepted an unknown precision")
	}
}

// TestDeltaQSGDMatchesComposition holds the quantizer's in-place base
// handling to the composition it replaced, kept here as the oracle:
// materialise v − prev at the link's width, quantize it with
// referenceQSGD, decode, add prev. Payload bytes, scale and its width, the
// rounding stream's position and every decoded bit must agree, at every
// bit width and both precisions, over consecutive transfers of one chained
// link: no base yet, a base, a base holding −0, and a vector equal to its
// base (scale 0 — where the −0 must still decode to +0).
func TestDeltaQSGDMatchesComposition(t *testing.T) {
	for bits := 2; bits <= 16; bits++ {
		deltaQSGDAgainstComposition[float64](t, bits)
		deltaQSGDAgainstComposition[float32](t, bits)
	}
}

func deltaQSGDAgainstComposition[T tensor.Float](t *testing.T, bits int) {
	t.Helper()
	const n, negZeroAt = 77, 3 // two radix groups and a strip tail
	spec := Spec{Name: "delta+qsgd", Bits: bits, Seed: 23}
	_, f32 := any(T(0)).(float32)
	if f32 {
		spec.Precision = tensor.F32
	}
	c := mustCodec(t, spec)
	st, err := snapshotCodec(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := frand.New(st.RNG)
	var prev []float64
	for step := 0; step < 5; step++ {
		v := testVec32(n, uint64(100*bits+step))
		if step >= 2 {
			prev[negZeroAt] = math.Copysign(0, -1)
		}
		if step == 3 {
			copy(v, prev)
		}
		d, base := tensor.Converted[T](v), tensor.Converted[T](prev)
		for i, p := range base {
			d[i] -= p
		}
		packed, scale, want := referenceQSGD(d, bits, rng)
		for i, p := range base {
			want[i] += p
		}

		u := c.Encode(v, prev)
		after, _ := snapshotCodec(c)
		if u.Codec != "delta+qsgd" || u.N != n || u.Bits != bits || u.F32 != f32 || u.Scale != float64(scale) || !bytes.Equal(u.Packed, packed) {
			t.Fatalf("%d bits, %T, transfer %d: update differs from the composition's (scale %v vs %v)", bits, scale, step, u.Scale, scale)
		}
		if after.RNG != rng.State() {
			t.Fatalf("%d bits, %T, transfer %d: rounding stream at %#x, composition at %#x", bits, scale, step, after.RNG, rng.State())
		}
		got, err := c.Decode(u, prev)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if math.Float64bits(got[i]) != math.Float64bits(float64(w)) {
				t.Fatalf("%d bits, %T, transfer %d: decoded[%d] = %v, composition %v", bits, scale, step, i, got[i], w)
			}
		}
		if step == 3 && (scale != 0 || math.Float64bits(got[negZeroAt]) != 0) {
			t.Fatalf("%d bits, %T: scale %v, −0 in the base decoded to %#x; want scale 0 and +0", bits, scale, scale, math.Float64bits(got[negZeroAt]))
		}
		prev = got
	}
}

// TestWrongLengthBaseFailsByName: a link base shorter or longer than the
// vector — a shadow restored from another model — never panics an
// encoder; the update declares the vector's length and the decoder names
// the mismatch.
func TestWrongLengthBaseFailsByName(t *testing.T) {
	v := testVec32(20, 31)
	for _, spec := range []Spec{
		{Name: "delta"}, {Name: "delta+qsgd", Bits: 8}, {Name: "delta+qsgd", Bits: 5},
		{Name: "delta", Precision: tensor.F32}, {Name: "delta+qsgd", Precision: tensor.F32},
	} {
		for _, m := range []int{3, 21, 64} {
			c, prev := mustCodec(t, spec), testVec32(m, 32)
			u := c.Encode(v, prev)
			if u.N != len(v) {
				t.Errorf("%s, base of %d: update declares %d params, want %d", spec, m, u.N, len(v))
			}
			if _, err := c.Decode(u, prev); err == nil || !strings.Contains(err.Error(), "link state has") {
				t.Errorf("%s, base of %d: decode error %v, want the link-state length mismatch", spec, m, err)
			}
		}
	}
}
