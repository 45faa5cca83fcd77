package comm

import (
	"fmt"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// qsgdCodec implements QSGD-style stochastic uniform quantization: each
// coordinate v is scaled by the vector's max-magnitude, mapped to one of
// 2^(bits−1)−1 levels per sign, and rounded stochastically so the
// quantizer is unbiased (E[decode] = v). Levels are packed at `bits` bits
// per coordinate — except at the narrow widths (see packedLen), where
// plain bit-packing wastes a fraction of every field and levels are
// radix-packed instead.
//
// Under delta ("delta+qsgd") the quantized vector is the difference from
// the link base, which encode and decode apply in place — there is no
// wrapper codec and no materialised difference.
type qsgdCodec[T tensor.Float] struct {
	name  string
	bits  int
	delta bool
	rng   *frand.Source
}

func (c *qsgdCodec[T]) Name() string { return c.name }

func (c *qsgdCodec[T]) rounding() *frand.Source { return c.rng }

// levels returns s, the number of positive quantization levels at the
// given width: values are integers in [−s, s], stored offset-binary.
func levels(bits int) int { return 1<<(bits-1) - 1 }

// Radix packing. A width-b level takes one of 2s+1 values (s =
// levels(b)), so bit-packing at b bits wastes log2(2^b/(2s+1)) bits per
// coordinate — 41.5% of the payload at b=2 (3 values in 4 codes) and
// 6.1% at b=3 (7 in 8). At those widths levels are treated as base-(2s+1)
// digits instead: radixGroup(b) digits accumulate into one uint64 (the
// largest group whose value range fits), shipped as 8 little-endian
// bytes, with a final partial group shipped in exactly the bytes its
// value range needs. At b ≥ 4 the bit-packing waste is ≤ 0.9% and the
// shift/mask path is kept.
const maxRadixBits = 3

// radixGroup returns the digits-per-uint64 group size for a radix-packed
// width: the largest G with (2s+1)^G ≤ 2^64.
func radixGroup(bits int) int {
	switch bits {
	case 2:
		return 40 // 3^40 < 2^64
	case 3:
		return 22 // 7^22 < 2^64
	}
	panic("comm: radixGroup on a bit-packed width")
}

// radixTailBytes returns the bytes needed for a trailing group of k
// base-L digits: the smallest m with L^k ≤ 2^(8m).
func radixTailBytes(radix uint64, k int) int {
	if k == 0 {
		return 0
	}
	max := radix - 1 // largest value of a k-digit group
	for i := 1; i < k; i++ {
		max = max*radix + (radix - 1)
	}
	b := 0
	for ; max > 0; max >>= 8 {
		b++
	}
	return b
}

// packedLen returns the payload bytes of n levels at the given width
// under the packing Encode uses — the single sizing truth shared by
// Encode, Decode, Update.WireBytes (via len(Packed)), and Spec.WireSize.
func packedLen(n, bits int) int {
	if bits > maxRadixBits {
		return (n*bits + 7) / 8
	}
	g := radixGroup(bits)
	radix := uint64(2*levels(bits) + 1)
	return 8*(n/g) + radixTailBytes(radix, n%g)
}

// levelWriter streams offset-binary levels into a packed payload,
// choosing the radix or bit-packing layout by width.
type levelWriter struct {
	buf   []byte
	bits  int
	radix uint64 // 0 selects the bit-packing path
	group int
	acc   uint64
	mult  uint64
	cnt   int
	pos   int // next byte (radix) / next bit (bit-packing)
}

func newLevelWriter(buf []byte, bits int) levelWriter {
	w := levelWriter{buf: buf, bits: bits, mult: 1}
	if bits <= maxRadixBits {
		w.radix = uint64(2*levels(bits) + 1)
		w.group = radixGroup(bits)
	}
	return w
}

func (w *levelWriter) put(q uint32) {
	if w.radix == 0 {
		putBits(w.buf, w.pos, w.bits, q)
		w.pos += w.bits
		return
	}
	w.acc += uint64(q) * w.mult
	w.mult *= w.radix
	w.cnt++
	if w.cnt == w.group {
		w.emit(8)
	}
}

// finish flushes a trailing partial radix group into exactly the bytes
// its value range needs.
func (w *levelWriter) finish() {
	if w.radix != 0 && w.cnt > 0 {
		w.emit(radixTailBytes(w.radix, w.cnt))
	}
}

func (w *levelWriter) emit(nbytes int) {
	for i := 0; i < nbytes; i++ {
		w.buf[w.pos+i] = byte(w.acc >> (8 * i))
	}
	w.pos += nbytes
	w.acc, w.mult, w.cnt = 0, 1, 0
}

// levelReader is the decoding mirror of levelWriter. remaining counts
// coordinates left, so the reader knows when it is consuming the final
// (shorter) radix group.
type levelReader struct {
	buf       []byte
	bits      int
	radix     uint64
	group     int
	acc       uint64
	cnt       int
	pos       int
	remaining int
}

func newLevelReader(buf []byte, bits, n int) levelReader {
	r := levelReader{buf: buf, bits: bits, remaining: n}
	if bits <= maxRadixBits {
		r.radix = uint64(2*levels(bits) + 1)
		r.group = radixGroup(bits)
	}
	return r
}

func (r *levelReader) next() uint32 {
	if r.radix == 0 {
		q := getBits(r.buf, r.pos, r.bits)
		r.pos += r.bits
		return q
	}
	if r.cnt == 0 {
		nbytes := 8
		r.cnt = r.group
		if r.remaining < r.group {
			r.cnt = r.remaining
			nbytes = radixTailBytes(r.radix, r.cnt)
		}
		r.acc = 0
		for i := 0; i < nbytes; i++ {
			r.acc |= uint64(r.buf[r.pos+i]) << (8 * i)
		}
		r.pos += nbytes
	}
	q := uint32(r.acc % r.radix)
	r.acc /= r.radix
	r.cnt--
	r.remaining--
	return q
}

// byteBits is the width at which a level is exactly one payload byte:
// encode and decode then run tensor's byte-quantiser loops straight over
// Packed, with no level stream between them and the payload. It is the
// default width (defaultBits), so those are the loops a default deployment
// runs per coordinate — and the ones with AVX2 strips under them.
const byteBits = 8

// encode quantizes v, or under delta the difference v − prev, in two
// passes over the operands and none over a scratch copy: one read-only for
// the max-magnitude scale, one that scales, rounds and packs. The scale is
// a T — on an f32 link it ships in 4 bytes — and each coordinate costs one
// rng draw at either width (tensor.RoundLevel is the rounding step of
// every width). A prev of the wrong length counts as none (linkBase).
func (c *qsgdCodec[T]) encode(v, prev []T) *Update {
	n := len(v)
	s := levels(c.bits)
	base := linkBase(c.delta, v, prev)
	scale := tensor.MaxAbsDiff(v, base)
	_, f32 := any(scale).(float32)
	u := &Update{
		Codec:  c.name,
		N:      n,
		Bits:   c.bits,
		Scale:  float64(scale),
		F32:    f32,
		Packed: GetPacked(packedLen(n, c.bits)),
	}
	if scale == 0 {
		// Nothing to quantize: decode short-circuits on Scale == 0 and
		// never reads the level payload, which ships zeroed.
		clear(u.Packed)
		return u
	}
	invUnit := T(s) / scale // a difference times invUnit is in [−s, s]
	if c.bits == byteBits {
		tensor.QuantizeBytes(u.Packed, v, base, invUnit, s, c.rng) // stores every byte
		return u
	}
	clear(u.Packed) // the level writers OR into it
	// The rounding stream lives in a local for the loop (a register, not a
	// load and store through c.rng per draw) and is stored back after.
	rng := *c.rng
	w := newLevelWriter(u.Packed, c.bits)
	for i, x := range v {
		if base != nil {
			x -= base[i]
		}
		w.put(tensor.RoundLevel(float64(x*invUnit), s, &rng))
	}
	w.finish()
	*c.rng = rng
	return u
}

// decode reconstructs the quantized vector at width T, adding the link
// base under delta in the same pass. The level payload is width-exact
// either way, so an update quantized at the other width decodes too (its
// scale merely converts on the way in).
func (c *qsgdCodec[T]) decode(u *Update, prev []T) ([]T, error) {
	if err := check(u, c.name, prev); err != nil {
		return nil, err
	}
	if u.Bits != c.bits {
		return nil, fmt.Errorf("comm: qsgd update at %d bits, link configured for %d", u.Bits, c.bits)
	}
	// A coordinate never packs into less than a bit, so a count beyond
	// this is malformed — and must not reach packedLen, whose n·bits could
	// wrap around to the payload's length.
	if u.N > 8*len(u.Packed) {
		return nil, fmt.Errorf("comm: qsgd payload of %d bytes cannot hold %d levels", len(u.Packed), u.N)
	}
	if want := packedLen(u.N, u.Bits); len(u.Packed) != want {
		return nil, fmt.Errorf("comm: qsgd payload has %d bytes, want %d", len(u.Packed), want)
	}
	if !c.delta {
		prev = nil
	}
	s := levels(u.Bits)
	out := tensor.GetVec[T](u.N)
	if u.Scale == 0 {
		// Every difference is +0, and it is added, not skipped: a −0 in
		// the base decodes to +0, as the sum has always made it.
		tensor.Zero(out)
		for i, p := range prev {
			out[i] += p
		}
		return out, nil
	}
	unit := T(u.Scale) / T(s)
	if u.Bits == byteBits {
		tensor.DequantizeBytes(out, u.Packed, prev, unit, s)
		return out, nil
	}
	r := newLevelReader(u.Packed, u.Bits, u.N)
	for i := range out {
		// The conversion rounds the product before the base is added: no
		// architecture may fuse the two (see tensor.DequantizeBytes).
		d := T(T(int(r.next())-s) * unit)
		if prev != nil {
			d += prev[i]
		}
		out[i] = d
	}
	return out, nil
}

// putBits writes the low `width` bits of v at bit offset off. width ≤ 16,
// so a value spans at most three bytes.
func putBits(b []byte, off, width int, v uint32) {
	i := off >> 3
	sh := uint(off & 7)
	x := v << sh
	b[i] |= byte(x)
	if int(sh)+width > 8 {
		b[i+1] |= byte(x >> 8)
	}
	if int(sh)+width > 16 {
		b[i+2] |= byte(x >> 16)
	}
}

// getBits reads `width` bits at bit offset off.
func getBits(b []byte, off, width int) uint32 {
	i := off >> 3
	sh := uint(off & 7)
	x := uint32(b[i])
	if int(sh)+width > 8 {
		x |= uint32(b[i+1]) << 8
	}
	if int(sh)+width > 16 {
		x |= uint32(b[i+2]) << 16
	}
	return (x >> sh) & (1<<width - 1)
}
