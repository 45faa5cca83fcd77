package comm

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

func testVec(n int, seed uint64) []float64 {
	return frand.New(seed).NormVec(make([]float64, n), 0, 1)
}

func mustCodec(t *testing.T, s Spec) Codec {
	t.Helper()
	c, err := s.ForDevice("test", 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{}, // disabled
		{Name: "raw"},
		{Name: "delta"},
		{Name: "qsgd", Bits: 2},
		{Name: "qsgd", Bits: 16},
		{Name: "delta+qsgd"},
		{Name: "topk", TopK: 1},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", s, err)
		}
		if s.Enabled() {
			if got := mustCodec(t, s).Name(); got != s.Name {
				t.Errorf("%+v: codec named %q", s, got)
			}
		}
	}
	bad := []Spec{
		{Name: "gzip"},
		{Name: "qsgd", Bits: 1},
		{Name: "qsgd", Bits: 17},
		{Name: "topk", TopK: -0.1},
		{Name: "topk", TopK: 1.5},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v: invalid spec accepted", s)
		}
	}
	if _, err := (Spec{}).ForDevice("test", 0); err == nil {
		t.Error("ForDevice on a disabled spec accepted")
	}
}

func TestRawIsExact(t *testing.T) {
	params := testVec(257, 1)
	prev := testVec(257, 2)
	c := mustCodec(t, Spec{Name: "raw"})
	for _, p := range [][]float64{nil, prev} {
		u := c.Encode(params, p)
		got, err := c.Decode(u, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, params) {
			t.Fatal("raw decode is not bit-for-bit")
		}
		if u.WireBytes() != 8*257 {
			t.Fatalf("WireBytes = %d, want %d", u.WireBytes(), 8*257)
		}
	}
}

func TestDeltaIsExactUpToRounding(t *testing.T) {
	params := testVec(257, 1)
	prev := testVec(257, 2)
	c := mustCodec(t, Spec{Name: "delta"})
	// Without a base the payload is params verbatim: bit-for-bit.
	got, err := c.Decode(c.Encode(params, nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, params) {
		t.Fatal("delta without a base is not bit-for-bit")
	}
	// With a base, (params − prev) + prev re-rounds once per coordinate.
	got, err = c.Decode(c.Encode(params, prev), prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range params {
		if d := math.Abs(got[i] - params[i]); d > 1e-12*math.Abs(params[i])+1e-300 {
			t.Fatalf("coord %d: delta error %g beyond float rounding", i, d)
		}
	}
}

func TestQSGDErrorBound(t *testing.T) {
	params := testVec(1000, 3)
	for _, bits := range []int{2, 4, 8, 12} {
		c := mustCodec(t, Spec{Name: "qsgd", Bits: bits, Seed: 5})
		u := c.Encode(params, nil)
		got, err := c.Decode(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Stochastic rounding moves each coordinate by at most one level.
		unit := u.Scale / float64(levels(bits))
		for i := range params {
			if d := math.Abs(got[i] - params[i]); d > unit+1e-12 {
				t.Fatalf("bits=%d coord %d: error %g exceeds level width %g", bits, i, d, unit)
			}
		}
	}
}

func TestQSGDUnbiased(t *testing.T) {
	// E[decode] = v for stochastic rounding: averaging many independent
	// quantizations converges to the input.
	params := testVec(8, 4)
	c := mustCodec(t, Spec{Name: "qsgd", Bits: 4, Seed: 9})
	sum := make([]float64, len(params))
	const trials = 4000
	var unit float64
	for trial := 0; trial < trials; trial++ {
		u := c.Encode(params, nil)
		unit = u.Scale / float64(levels(4))
		got, err := c.Decode(u, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			sum[i] += v
		}
	}
	for i := range sum {
		mean := sum[i] / trials
		if d := math.Abs(mean - params[i]); d > unit/10 {
			t.Fatalf("coord %d: mean %g vs true %g (|Δ|=%g, unit=%g) — rounding looks biased",
				i, mean, params[i], d, unit)
		}
	}
}

func TestQSGDDeterminism(t *testing.T) {
	params := testVec(300, 6)
	s := Spec{Name: "qsgd", Bits: 6, Seed: 42}
	a, _ := s.ForDevice("uplink", 3)
	b, _ := s.ForDevice("uplink", 3)
	ua, ub := a.Encode(params, nil), b.Encode(params, nil)
	if !reflect.DeepEqual(ua, ub) {
		t.Fatal("same (seed, direction, device) produced different encodings")
	}
	other, _ := s.ForDevice("uplink", 4)
	if reflect.DeepEqual(ua, other.Encode(params, nil)) {
		t.Fatal("different devices share a rounding stream")
	}
}

func TestQSGDZeroVector(t *testing.T) {
	c := mustCodec(t, Spec{Name: "qsgd", Bits: 8})
	u := c.Encode(make([]float64, 50), nil)
	got, err := c.Decode(u, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("coord %d: zero vector decoded to %g", i, v)
		}
	}
}

func TestTopKChainedLinkConverges(t *testing.T) {
	// Downlink semantics: the base chains through the decoded values, so
	// the lagging prev re-queues unsent mass and a fixed target must be
	// delivered exactly within ⌈1/frac⌉ rounds — no residual involved.
	target := testVec(100, 7)
	c, err := (Spec{Name: "topk", TopK: 0.25}).ForDevice(Downlink, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prev []float64
	lastErr := math.Inf(1)
	for round := 0; round < 4; round++ {
		u := c.Encode(target, prev)
		if len(u.Indices) != 25 {
			t.Fatalf("round %d: sent %d coords, want 25", round, len(u.Indices))
		}
		got, err := c.Decode(u, prev)
		if err != nil {
			t.Fatal(err)
		}
		e := 0.0
		for i := range target {
			e += (got[i] - target[i]) * (got[i] - target[i])
		}
		if e > lastErr+1e-12 {
			t.Fatalf("round %d: reconstruction error rose from %g to %g", round, lastErr, e)
		}
		lastErr = e
		prev = got
	}
	if lastErr > 1e-20 {
		t.Fatalf("after 4 rounds at 25%% the chain should have drained, error %g", lastErr)
	}
}

func TestTopKErrorFeedbackAccounting(t *testing.T) {
	// Uplink semantics: each round's base is one-shot (nil here), so the
	// residual must make sent-so-far + residual equal input-so-far, and
	// every coordinate must eventually be transmitted.
	n, rounds := 20, 8
	target := make([]float64, n)
	for i := range target {
		// Magnitudes within 3x of each other so doubling residuals
		// overtake the largest coordinate quickly.
		target[i] = (0.5 + float64(i)/float64(n)) * float64(1-2*(i%2))
	}
	c, err := (Spec{Name: "topk", TopK: 0.25}).ForDevice(Uplink, 0)
	if err != nil {
		t.Fatal(err)
	}
	tk := c.(*topkCodec)
	sent := make([]float64, n)
	seen := map[int32]bool{}
	for round := 0; round < rounds; round++ {
		u := c.Encode(target, nil)
		for j, i := range u.Indices {
			sent[i] += u.Values[j]
			seen[i] = true
		}
		// EF invariant: sent + residual = (round+1) · target.
		for i := range target {
			want := float64(round+1) * target[i]
			if d := math.Abs(sent[i] + tk.residual[i] - want); d > 1e-9 {
				t.Fatalf("round %d coord %d: sent+residual=%g, want %g",
					round, i, sent[i]+tk.residual[i], want)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("after %d rounds only %d/%d coordinates were ever transmitted", rounds, len(seen), n)
	}
}

func TestTopKSelectsLargest(t *testing.T) {
	c := mustCodec(t, Spec{Name: "topk", TopK: 0.2})
	v := []float64{0.1, -5, 0.2, 4, -0.3, 0.1, 0, 3, -0.2, 0.05}
	u := c.Encode(v, nil)
	want := map[int32]bool{1: true, 3: true}
	if len(u.Indices) != 2 {
		t.Fatalf("kept %d coords, want 2", len(u.Indices))
	}
	for _, i := range u.Indices {
		if !want[i] {
			t.Fatalf("kept coordinate %d, want the two largest magnitudes (1, 3)", i)
		}
	}
}

func TestWireBytesCompression(t *testing.T) {
	n := 1000
	params := testVec(n, 8)
	raw := mustCodec(t, Spec{Name: "raw"}).Encode(params, nil).WireBytes()
	cases := []struct {
		spec Spec
		min  float64 // required compression ratio vs raw
	}{
		{Spec{Name: "qsgd", Bits: 8}, 4},
		{Spec{Name: "qsgd", Bits: 4}, 8},
		{Spec{Name: "delta+qsgd", Bits: 8}, 4},
		{Spec{Name: "topk", TopK: 0.1}, 4},
	}
	for _, tc := range cases {
		u := mustCodec(t, tc.spec).Encode(params, nil)
		ratio := float64(raw) / float64(u.WireBytes())
		if ratio < tc.min {
			t.Errorf("%s: ratio %.2fx < required %.0fx (%d vs %d bytes)",
				tc.spec, ratio, tc.min, u.WireBytes(), raw)
		}
	}
}

func TestDecodeRejectsMismatch(t *testing.T) {
	params := testVec(20, 9)
	u := mustCodec(t, Spec{Name: "raw"}).Encode(params, nil)
	if _, err := mustCodec(t, Spec{Name: "topk"}).Decode(u, nil); err == nil {
		t.Error("topk decoded a raw update")
	}
	if _, err := mustCodec(t, Spec{Name: "raw"}).Decode(u, make([]float64, 3)); err == nil {
		t.Error("length mismatch against link state accepted")
	}
	q := mustCodec(t, Spec{Name: "qsgd", Bits: 8}).Encode(params, nil)
	if _, err := mustCodec(t, Spec{Name: "qsgd", Bits: 4}).Decode(q, nil); err == nil {
		t.Error("bit-width mismatch accepted")
	}
}

func TestBitPackingRoundTrip(t *testing.T) {
	for _, width := range []int{2, 3, 5, 8, 11, 16} {
		n := 37
		vals := make([]uint32, n)
		rng := frand.New(uint64(width))
		buf := make([]byte, (n*width+7)/8)
		for i := range vals {
			vals[i] = uint32(rng.Intn(1 << width))
			putBits(buf, i*width, width, vals[i])
		}
		for i, want := range vals {
			if got := getBits(buf, i*width, width); got != want {
				t.Fatalf("width %d index %d: got %d want %d", width, i, got, want)
			}
		}
	}
}

func TestSelectTopKMatchesSort(t *testing.T) {
	// Quickselect must pick the identical set as the reference total
	// order (|d| desc, index asc), including on ties.
	for trial := 0; trial < 50; trial++ {
		rng := frand.New(uint64(trial))
		n := 1 + rng.Intn(200)
		d := make([]float64, n)
		for i := range d {
			// Coarse values force magnitude ties.
			d[i] = float64(rng.Intn(7)-3) / 2
		}
		k := 1 + rng.Intn(n)

		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.Slice(ref, func(a, b int) bool {
			da, db := math.Abs(d[ref[a]]), math.Abs(d[ref[b]])
			if da != db {
				return da > db
			}
			return ref[a] < ref[b]
		})
		want := append([]int(nil), ref[:k]...)
		sort.Ints(want)

		got := make([]int, n)
		for i := range got {
			got[i] = i
		}
		selectTopK(d, got, k)
		sel := got[:k]
		sort.Ints(sel)
		if !reflect.DeepEqual(sel, want) {
			t.Fatalf("trial %d (n=%d k=%d): quickselect %v != sort %v", trial, n, k, sel, want)
		}
	}
}

// TestReleaseIsOnceOnly: an Update's payload goes back to the pool on the
// first Release and the Update lets go of it, so a second Release (the one
// unsafe thing besides a read after the first) puts nothing back twice:
// two vectors drawn afterwards are two vectors.
func TestReleaseIsOnceOnly(t *testing.T) {
	for _, spec := range []Spec{{Name: "raw"}, {Name: "raw", Precision: tensor.F32}, {Name: "qsgd"}, {Name: "topk"}} {
		c, err := spec.ForDevice(Uplink, 0)
		if err != nil {
			t.Fatal(err)
		}
		u := c.Encode(testVec32(64, 3), testVec32(64, 4))
		price := u.WireBytes()
		u.Release()
		if u.Dense != nil || u.Dense32 != nil || u.Packed != nil || u.Values != nil {
			t.Fatalf("%v: Release left a payload slice behind", spec)
		}
		u.Release()
		a, b := tensor.GetVec[float64](64), tensor.GetVec[float64](64)
		a32, b32 := tensor.GetVec[float32](64), tensor.GetVec[float32](64)
		p, q := GetPacked(64), GetPacked(64)
		if &a[0] == &b[0] || &a32[0] == &b32[0] || &p[0] == &q[0] {
			t.Fatalf("%v: a released payload came out of the pool twice", spec)
		}
		if price != spec.WireSize(64) {
			t.Fatalf("%v: priced %d before the release, want %d", spec, price, spec.WireSize(64))
		}
	}
}
