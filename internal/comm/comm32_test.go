package comm

import (
	"bytes"
	"math"
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
// every packing regime — radix (bits 2 and 3), the byte-aligned fast
// path (bits 8), and shift/mask bit-packing (4, 5, 11, 16) — at counts
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

// TestByteFastPathMatchesBitPacking pins the 8-bit specialization to
// the generic shift/mask layout: the payload bytes must be identical,
// or a mixed-version fleet (one side on the fast path, one not) would
// disagree about the stream.
func TestByteFastPathMatchesBitPacking(t *testing.T) {
	const n, width = 53, 8
	rng := frand.New(99)
	vals := make([]uint32, n)
	fast := make([]byte, packedLen(n, width))
	generic := make([]byte, packedLen(n, width))
	w := newLevelWriter(fast, width)
	for i := range vals {
		vals[i] = uint32(rng.Intn(1 << width))
		w.put(vals[i])
		putBits(generic, i*width, width, vals[i])
	}
	w.finish()
	if !bytes.Equal(fast, generic) {
		t.Fatal("8-bit fast path produced a different payload than putBits")
	}
	for i, want := range vals {
		if got := getBits(fast, i*width, width); got != want {
			t.Fatalf("getBits cannot read the fast-path payload at %d: got %d want %d", i, got, want)
		}
	}
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
