package comm

import (
	"testing"

	"fedprox/internal/tensor"
)

// The wire-size corpus: every registered codec at several knob settings,
// and sizes including n=1 and counts that do not fill a byte or a radix
// group. FuzzDecode seeds itself with the encodes of the same corpus.
var (
	wireSizeSpecs = []Spec{
		{Name: "raw"},
		{Name: "delta"},
		{Name: "qsgd"},
		{Name: "qsgd", Bits: 2},
		{Name: "qsgd", Bits: 5}, // 5 bits: packing straddles byte boundaries
		{Name: "qsgd", Bits: 16},
		{Name: "delta+qsgd", Bits: 3},
		{Name: "topk"},
		{Name: "topk", TopK: 0.33},
		{Name: "topk", TopK: 1},
	}
	wireSize32Specs = []Spec{
		{Name: "raw", Precision: tensor.F32},
		{Name: "delta", Precision: tensor.F32},
		{Name: "qsgd", Precision: tensor.F32},
		{Name: "qsgd", Bits: 2, Precision: tensor.F32},
		{Name: "qsgd", Bits: 5, Precision: tensor.F32},
		{Name: "delta+qsgd", Bits: 3, Precision: tensor.F32},
		{Name: "delta+qsgd", Bits: 8, Precision: tensor.F32},
	}
	wireSizeNs = []int{1, 2, 7, 64, 257}
)

// TestWireSizeMatchesRealizedEncodes is the contract the virtual-time
// driver leans on: Spec.WireSize(n) equals the realized WireBytes of an
// actual n-parameter encode, for every registered codec at several
// knob settings and sizes (including n=1 and bit widths that don't
// divide a byte). The driver charges a reply's uplink before the solve
// produces the payload, so a drift here silently skews every virtual
// clock.
func TestWireSizeMatchesRealizedEncodes(t *testing.T) {
	for _, s := range wireSizeSpecs {
		for _, n := range wireSizeNs {
			params := testVec(n, 11)
			prev := testVec(n, 12)
			c := mustCodec(t, s)
			u := c.Encode(params, prev)
			if got, want := u.WireBytes(), s.WireSize(n); got != want {
				t.Errorf("%v n=%d: realized %d bytes, WireSize predicts %d", s, n, got, want)
			}
			// A second encode on the same link (error feedback, changed
			// state) must not change the size either.
			u = c.Encode(prev, params)
			if got, want := u.WireBytes(), s.WireSize(n); got != want {
				t.Errorf("%v n=%d second encode: realized %d, predicted %d", s, n, got, want)
			}
		}
	}
}

// TestWireSize32MatchesRealizedEncodes is the same contract on the
// float32 wire: a spec stamped Precision f32 must predict the realized
// WireBytes of its codec's Encode — raw/delta at 4-byte coordinates,
// qsgd with its 4-byte scale — for every codec that has an f32 path.
func TestWireSize32MatchesRealizedEncodes(t *testing.T) {
	for _, s := range wireSize32Specs {
		for _, n := range wireSizeNs {
			params := testVec32(n, 11)
			prev := testVec32(n, 12)
			c := mustCodec32(t, s)
			u := c.Encode(params, prev)
			if got, want := u.WireBytes(), s.WireSize(n); got != want {
				t.Errorf("%v n=%d: realized %d bytes, WireSize predicts %d", s, n, got, want)
			}
			u = c.Encode(prev, params)
			if got, want := u.WireBytes(), s.WireSize(n); got != want {
				t.Errorf("%v n=%d second encode: realized %d, predicted %d", s, n, got, want)
			}
		}
	}
}
