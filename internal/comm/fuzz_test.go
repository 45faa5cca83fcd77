package comm

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"fedprox/internal/tensor"
)

// fuzzCodecs are the codecs FuzzDecode drives: every dense and quantizing
// one, the decoders an encoded comm.Update off the wire reaches.
var fuzzCodecs = []string{"raw", "delta", "qsgd", "delta+qsgd"}

// FuzzDecode hands each dense and quantizing decoder, at both arithmetic
// widths, an arbitrary Update — the shape a frame from a peer the
// coordinator does not control decodes into. Decode must not panic, must
// refuse any update whose payload length does not match its declared N
// (and Bits), and on success must return exactly N values. The seeds are
// the real encodes of the wire-size corpus.
func FuzzDecode(f *testing.F) {
	for _, specs := range [][]Spec{wireSizeSpecs, wireSize32Specs} {
		for _, s := range specs {
			ci := slices.Index(fuzzCodecs, s.Name)
			if ci < 0 {
				continue // topk
			}
			s = s.WithDefaults()
			for _, n := range wireSizeNs {
				c, err := s.ForDevice(Uplink, 0)
				if err != nil {
					f.Fatal(err)
				}
				u := c.Encode(testVec32(n, 11), testVec32(n, 12))
				var dense []byte
				for _, x := range u.Dense {
					dense = binary.LittleEndian.AppendUint64(dense, math.Float64bits(x))
				}
				for _, x := range u.Dense32 {
					dense = binary.LittleEndian.AppendUint32(dense, math.Float32bits(x))
				}
				f32 := s.Precision == tensor.F32
				f.Add(uint8(ci), f32, uint8(s.Bits-2), true, int64(u.N), dense, f32, u.Packed, int64(u.Bits), u.Scale, u.F32, uint16(n))
			}
		}
	}
	// Hostile counts: a negative N whose radix tail "needs" the one byte
	// present, and an N whose n·bits wraps around to the empty payload.
	f.Add(uint8(2), false, uint8(3-2), true, int64(-1), []byte(nil), false, []byte{0}, int64(3), 1.0, false, uint16(0))
	f.Add(uint8(2), false, uint8(8-2), true, int64(1)<<61, []byte(nil), false, []byte{}, int64(8), 1.0, false, uint16(0))
	f.Fuzz(func(t *testing.T, codec uint8, f32 bool, specBits uint8, named bool, n int64,
		dense []byte, dense32 bool, packed []byte, bits int64, scale float64, scaleF32 bool, prevN uint16) {
		spec := Spec{Name: fuzzCodecs[int(codec)%len(fuzzCodecs)], Bits: 2 + int(specBits)%15}
		if f32 {
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
		if dense32 {
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
		out, err := c.Decode(u, prev)
		if err != nil {
			return
		}
		if len(out) != u.N {
			t.Fatalf("%v decoded %d values from an update declaring %d", spec, len(out), u.N)
		}
		payload, want := len(u.Dense), u.N
		switch {
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
