package comm

import (
	"encoding/binary"
	"math"
	"testing"

	"fedprox/internal/tensor"
)

// fuzzCodecs are the codecs FuzzDecode drives: every decoder an encoded
// comm.Update off the wire reaches.
var fuzzCodecs = []string{"raw", "delta", "qsgd", "delta+qsgd", "topk"}

// FuzzDecode hands each decoder, at both arithmetic widths (topk has
// one), an arbitrary Update — the shape a frame from a peer the
// coordinator does not control decodes into. Decode must not panic, must
// refuse any update whose payload length does not match its declared N
// (and Bits), and on success must return exactly N values, N being either
// the link state's length or bounded by the payload received. topk's
// sparse payload bounds nothing, so a first-contact decode is the one
// case the caller must check N for (core.Device does, against the model):
// the harness skips a topk update with no link state whose N is not a
// model size it could have been checked against (16 bits here). Its
// indices ride in packed and its values in dense. The committed seeds
// (testdata/fuzz/FuzzDecode) are the real encodes of the wire-size corpus
// at both widths, then a negative N whose radix tail "needs" the one byte
// present, an N whose n·bits wraps around to the empty payload, and topk
// indices past N on a first contact and past the link state.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, codec uint8, f32 bool, specBits uint8, named bool, n int64,
		dense []byte, dense32 bool, packed []byte, bits int64, scale float64, scaleF32 bool, prevN uint16) {
		spec := Spec{Name: fuzzCodecs[int(codec)%len(fuzzCodecs)], Bits: 2 + int(specBits)%15}
		topk := spec.Name == "topk"
		if f32 = f32 && !topk; f32 {
			spec.Precision = tensor.F32
		}
		c, err := spec.ForDevice(Uplink, 0)
		if err != nil {
			t.Fatal(err)
		}
		u := &Update{N: int(n), Bits: int(bits), Scale: scale, F32: scaleF32, Packed: packed}
		if named {
			u.Codec = spec.Name
		}
		if topk {
			u.Packed, u.Indices, u.Values = nil, []int32{}, []float64{}
			for ; len(packed) >= 4; packed = packed[4:] {
				u.Indices = append(u.Indices, int32(binary.LittleEndian.Uint32(packed)))
			}
			for ; len(dense) >= 8; dense = dense[8:] {
				u.Values = append(u.Values, math.Float64frombits(binary.LittleEndian.Uint64(dense)))
			}
		} else if dense32 {
			for ; len(dense) >= 4; dense = dense[4:] {
				u.Dense32 = append(u.Dense32, math.Float32frombits(binary.LittleEndian.Uint32(dense)))
			}
		} else {
			for ; len(dense) >= 8; dense = dense[8:] {
				u.Dense = append(u.Dense, math.Float64frombits(binary.LittleEndian.Uint64(dense)))
			}
		}
		var prev []float64
		if prevN > 0 {
			prev = make([]float64, prevN)
		}
		if topk && prev == nil && u.N != int(uint16(n)) {
			return // the first-contact check that is the caller's
		}
		out, err := c.Decode(u, prev)
		if err != nil {
			return
		}
		if len(out) != u.N {
			t.Fatalf("%v decoded %d values from an update declaring %d", spec, len(out), u.N)
		}
		payload, want := len(u.Dense), u.N
		switch {
		case topk:
			if payload, want = len(u.Indices), len(u.Values); prev != nil && u.N != len(prev) {
				t.Fatalf("topk decoded %d params against a link state of %d", u.N, len(prev))
			}
		case spec.Name == "qsgd" || spec.Name == "delta+qsgd":
			if u.Bits != spec.Bits {
				t.Fatalf("%v decoded an update at %d bits", spec, u.Bits)
			}
			payload, want = len(u.Packed), packedLen(u.N, u.Bits)
		case f32:
			payload = len(u.Dense32)
		}
		if payload != want {
			t.Fatalf("%v decoded a payload of %d for %d params (want %d)", spec, payload, u.N, want)
		}
	})
}
