// Package comm implements pluggable codecs for federated model-update
// transfers, with byte accounting as a first-class output.
//
// FedProx targets networks where communication, not computation, is the
// dominant cost. This package makes that cost explicit and reducible: a
// Codec compresses one directed link's parameter transfers (a downlink
// broadcast wᵗ or an uplink local solution w_k), and every encoded Update
// reports the bytes an efficient serialization of it occupies, so the
// simulator (internal/core) and the distributed runtime (internal/fednet)
// can record uplink/downlink traffic per round and trade accuracy against
// bytes on the wire.
//
// Registered codecs:
//
//   - raw: float64 verbatim — today's behaviour, the accounting baseline
//     and the only codec that reconstructs bit for bit.
//   - delta: w − w_prev as dense float64. Exact up to one float64
//     rounding step per coordinate and the same size as raw on its own;
//     it is the transform the lossy codecs build in (the difference
//     between consecutive broadcasts is much smaller in magnitude than
//     the model, so a lossy codec applied to it loses less).
//   - qsgd: stochastic uniform quantization à la QSGD (Alistarh et al.)
//     at a configurable bit width. Rounding randomness comes from a
//     frand stream derived from (seed, direction, device), so runs are
//     bit-reproducible and the simulator and the distributed runtime
//     draw identical streams.
//   - delta+qsgd: quantize the difference instead of the model. Not a
//     wrapper: the quantizer works against the link base in place — one
//     read-only pass for the scale, one that subtracts, scales, rounds
//     and packs; decoding dequantizes and adds the base in one.
//   - topk: keep only the k = ⌈TopK·n⌉ largest-magnitude coordinates of
//     the transition w − w_prev, carrying the untransmitted remainder in
//     a per-link error-feedback residual (Stich et al.) so every
//     coordinate is eventually delivered. Top-k only makes sense on
//     differences, so the delta transform is built in.
//
// Codec instances are per directed link: Spec.ForDevice(direction,
// device) returns a fresh instance whose state (stochastic-rounding
// stream, error-feedback residual) belongs to that link alone. Encode
// mutates that state; Decode is stateless, so the two endpoints of a
// link may hold distinct instances. Both endpoints must agree on the
// previous delivered value (`prev`) — callers track the last decoded
// transfer per link and feed it back on both sides.
//
// The base is applied per coordinate, by whichever codec uses it, with no
// difference vector in between, under two rules the fused loops keep from
// the composition they replaced. A difference of zero is still added: a
// −0 in the base decodes to +0. And a base whose length is not the
// vector's — the shadow of another model — counts as no base to an
// encoder (linkBase), so no encode indexes past either; the decoder,
// which sees the same base, refuses the update by name (check).
package comm

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Default knob values filled in by Spec.WithDefaults.
const (
	// defaultBits is the qsgd bit width (sign included) when Spec.Bits
	// is zero.
	defaultBits = 8
	// defaultTopK is the kept-coordinate fraction when Spec.TopK is zero.
	defaultTopK = 0.1
)

// Spec selects and parameterizes a codec. The zero value means "no codec
// configured" (Enabled reports false); a Spec with only Name set uses the
// package defaults for every knob.
type Spec struct {
	// Name is one of Names(): "raw", "delta", "qsgd", "delta+qsgd",
	// "topk". Empty disables compression entirely.
	Name string
	// Bits is the qsgd quantization width in bits per coordinate,
	// including the sign, in [2, 16]. Zero selects defaultBits, 8.
	Bits int
	// TopK is the fraction of coordinates the topk codec keeps, in
	// (0, 1]. Zero selects defaultTopK, 0.1.
	TopK float64
	// Seed drives the stochastic-rounding streams. Callers that want
	// codec randomness tied to the run seed leave this zero and let the
	// run fill it in (core.Config.CommSpec does).
	Seed uint64
	// Precision is the arithmetic width of the link's payloads. The zero
	// value (tensor.F64) keeps the historical dense-float64 wire. With
	// tensor.F32, ForDevice builds a codec that computes in float32
	// behind the same float64 Codec interface: Encode narrows its inputs
	// (exact when they came off an f32 path), the dense codecs ship
	// float32 (half the bytes), the qsgd family quantizes with a float32
	// scale, and Decode widens its result. topk does not support f32
	// (its error-feedback residual is f64 state); Validate rejects the
	// combo.
	Precision tensor.Precision
}

// Enabled reports whether the spec names a codec.
func (s Spec) Enabled() bool { return s.Name != "" }

// WithDefaults returns s with zero-valued knobs replaced by the package
// defaults.
func (s Spec) WithDefaults() Spec {
	if s.Bits == 0 {
		s.Bits = defaultBits
	}
	if s.TopK == 0 {
		s.TopK = defaultTopK
	}
	return s
}

// Validate reports the first configuration error, or nil. The zero
// (disabled) spec is valid.
func (s Spec) Validate() error {
	if !s.Enabled() {
		return nil
	}
	if !slices.Contains(Names(), s.Name) {
		return fmt.Errorf("comm: unknown codec %q (known: %s)", s.Name, strings.Join(Names(), ", "))
	}
	s = s.WithDefaults()
	if s.Bits < 2 || s.Bits > 16 {
		return fmt.Errorf("comm: qsgd bit width must be in [2,16], got %d", s.Bits)
	}
	if s.TopK <= 0 || s.TopK > 1 {
		return fmt.Errorf("comm: topk fraction must be in (0,1], got %g", s.TopK)
	}
	if err := s.Precision.Validate(); err != nil {
		return err
	}
	if s.Precision == tensor.F32 && s.Name == "topk" {
		return fmt.Errorf("comm: topk does not support f32 payloads")
	}
	return nil
}

// Lossless reports whether the named codec reconstructs parameters
// bit for bit.
func (s Spec) Lossless() bool { return s.Name == "raw" }

// UsesPrev reports whether the codec interprets payloads relative to
// the link's previously delivered value (the `prev` argument). raw and
// qsgd encode the parameters themselves; the delta family and topk
// encode transitions.
func (s Spec) UsesPrev() bool {
	switch s.Name {
	case "delta", "delta+qsgd", "topk":
		return true
	default:
		return false
	}
}

// WireSize returns the exact WireBytes of any n-parameter transfer this
// codec encodes. Every registered codec's encoded size is a pure
// function of the parameter count — qsgd packs a fixed bit width, topk
// keeps a fixed coordinate fraction, the dense codecs ship one word (8
// or 4 bytes) per coordinate — which is what lets the virtual-time
// driver charge a reply's uplink leg and schedule its arrival before the
// solve has produced the payload (core/vsim.go), and core prices an
// uncoded transfer as raw's (core.Cost). A test asserts WireSize against
// realized encodes for every codec.
func (s Spec) WireSize(n int) int64 {
	d := s.WithDefaults()
	// A float32 link halves the dense word and the quantizer's scale.
	word, scale := int64(8), int64(8)
	if d.Precision == tensor.F32 {
		word, scale = 4, 4
	}
	switch d.Name {
	case "qsgd", "delta+qsgd":
		return scale + int64(packedLen(n, d.Bits))
	case "topk":
		k := int(d.TopK*float64(n) + 0.5)
		if k < 1 {
			k = 1
		}
		if k > n {
			k = n
		}
		return 4 + 12*int64(k)
	default: // raw, delta: dense words
		return word * int64(n)
	}
}

// String renders the spec with its effective knobs, e.g. "qsgd(b=8)".
func (s Spec) String() string {
	if !s.Enabled() {
		return "uncompressed"
	}
	d := s.WithDefaults()
	out := s.Name
	switch s.Name {
	case "qsgd", "delta+qsgd":
		out = fmt.Sprintf("%s(b=%d)", s.Name, d.Bits)
	case "topk":
		out = fmt.Sprintf("topk(k=%g%%)", 100*d.TopK)
	}
	if d.Precision == tensor.F32 {
		out += "/f32"
	}
	return out
}

// Names returns every registered codec name, in documentation order.
func Names() []string {
	return []string{"raw", "delta", "qsgd", "delta+qsgd", "topk"}
}

// Link directions. They name frand streams (so the directions of a
// device's link are decorrelated) and select the error-feedback policy:
// Downlink and Eval links chain their base — both endpoints track the
// last decoded broadcast, so any unsent mass automatically reappears in
// the next transition and an explicit residual would double-count it.
// Uplink has a one-shot base that is known exactly on both sides each
// round, so unsent mass is gone unless a residual carries it forward.
const (
	Downlink = "downlink"
	Uplink   = "uplink"
	// Eval is the shared evaluation broadcast: one chained link per
	// deployment (device index 0 by convention) that ships the global
	// model to every evaluator, separate from the per-device training
	// downlinks so evaluation cadence never perturbs training streams.
	Eval = "eval"
)

// ForDevice returns a fresh codec instance for one directed link
// (direction is conventionally Downlink or Uplink; device is the global
// device index). The instance owns per-link state — a
// stochastic-rounding stream derived from (Seed, direction, device) and,
// for topk on non-downlink links, the error-feedback residual — and must
// not be shared across links or used concurrently.
func (s Spec) ForDevice(direction string, device int) (Codec, error) {
	if !s.Enabled() {
		return nil, fmt.Errorf("comm: ForDevice on a disabled spec")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s = s.WithDefaults()
	if s.Name == "topk" {
		return &topkCodec{frac: s.TopK, ef: direction == Uplink}, nil
	}
	rng := frand.New(s.Seed).Split("comm/" + direction).SplitIndex(device)
	if s.Precision == tensor.F32 {
		return wire[float32]{newBody[float32](s, rng)}, nil
	}
	return wire[float64]{newBody[float64](s, rng)}, nil
}

// newBody builds the width-T body of a validated dense or quantizing
// spec.
func newBody[T tensor.Float](s Spec, rng *frand.Source) body[T] {
	switch s.Name {
	case "raw", "delta":
		return denseCodec[T]{name: s.Name, delta: s.UsesPrev()}
	case "qsgd", "delta+qsgd":
		return &qsgdCodec[T]{name: s.Name, bits: s.Bits, delta: s.UsesPrev(), rng: rng}
	}
	panic("comm: newBody on codec " + s.Name)
}

// Codec compresses the parameter transfers of one directed link.
type Codec interface {
	// Name returns the registered codec name.
	Name() string
	// Encode compresses the transition from prev (the last value
	// delivered on this link; nil means none yet) to params. It may
	// advance per-link state (rounding stream, residual).
	Encode(params, prev []float64) *Update
	// Decode reconstructs the transferred parameters. prev must be the
	// same value the encoder saw — link endpoints keep it in lockstep by
	// both storing every decoded transfer. Decode is stateless. The
	// returned slice is exclusively the caller's (it may come from the
	// tensor pool); callers that do not retain it should hand it back
	// with tensor.PutVec.
	Decode(u *Update, prev []float64) ([]float64, error)
}

// Update is one encoded parameter transfer, the unit that crosses the
// wire. Exactly one payload family is populated: Dense (raw, delta),
// Scale+Packed (qsgd family), or Indices+Values (topk).
type Update struct {
	// Codec names the encoding, for endpoint sanity checks.
	Codec string
	// N is the parameter count of the decoded vector.
	N int

	// Dense is the float64 payload of the raw and delta codecs.
	Dense []float64

	// Dense32 is the float32 payload of the raw and delta codecs on an
	// f32 link — half the dense bytes of Dense.
	Dense32 []float32

	// Bits, Scale, Packed carry a quantized payload: each coordinate is
	// a level of Bits bits in Packed (bit-packed, or radix-packed at the
	// narrow widths — see packedLen), scaled by Scale. F32 marks a scale
	// quantized to float32 by an f32 encoder, which ships in 4 bytes.
	Bits   int
	Scale  float64
	F32    bool
	Packed []byte

	// Indices, Values carry a sparse payload: Values[j] is the
	// transition component at coordinate Indices[j].
	Indices []int32
	Values  []float64
}

// WireBytes returns the bytes an efficient serialization of the update
// occupies: 8 per float64 (4 per float32), 4 per index, plus the
// quantizer's scale at its stored width. The raw codec costs exactly
// 8·N — the accounting the simulator used before codecs existed — so
// "raw" is the baseline compression ratios are measured against.
func (u *Update) WireBytes() int64 {
	switch {
	case u.Packed != nil:
		scale := int64(8)
		if u.F32 {
			scale = 4
		}
		return scale + int64(len(u.Packed))
	case u.Indices != nil:
		return 4 + 12*int64(len(u.Indices))
	case u.Dense32 != nil:
		return 4 * int64(u.N)
	default:
		return 8 * int64(u.N)
	}
}

// Release hands u's payload back to the pools the encoders and fednet's
// frame decoder draw it from. An Update has one owner at a time, who may
// release once: the endpoint that decodes u, after the decode; one that
// encoded u for a socket, after the write. Nothing may read the payload
// afterwards (WireBytes prices by its length). Never releasing is safe.
func (u *Update) Release() {
	tensor.PutVec(u.Dense)
	tensor.PutVec(u.Dense32)
	tensor.PutVec(u.Values)
	if cap(u.Packed) > 0 {
		p := u.Packed[:cap(u.Packed)]
		packedPool.Put(&p)
	}
	u.Dense, u.Dense32, u.Values, u.Packed = nil, nil, nil, nil
}

// packedPool recycles Packed payloads, as tensor's pools do dense ones.
var packedPool sync.Pool

// GetPacked returns n bytes of unspecified contents for an Update's Packed.
func GetPacked(n int) []byte {
	if p, ok := packedPool.Get().(*[]byte); ok && cap(*p) >= n {
		return (*p)[:n]
	}
	return make([]byte, n)
}

// check validates the envelope fields every decoder shares.
func check[T tensor.Float](u *Update, codec string, prev []T) error {
	if u.Codec != codec {
		return fmt.Errorf("comm: update encoded with %q, decoding with %q", u.Codec, codec)
	}
	if u.N < 0 {
		return fmt.Errorf("comm: update declares %d params", u.N)
	}
	if prev != nil && len(prev) != u.N {
		return fmt.Errorf("comm: update has %d params, link state has %d", u.N, len(prev))
	}
	return nil
}

// body is a codec at one arithmetic width: raw, delta and qsgd are each
// written once over T and instantiated at the link's precision.
type body[T tensor.Float] interface {
	Name() string
	encode(params, prev []T) *Update
	// decode returns a pooled vector.
	decode(u *Update, prev []T) ([]T, error)
	// rounding returns the stochastic-rounding stream the body draws
	// from — its only mutable state — or nil.
	rounding() *frand.Source
}

// wire presents a width-T body as a Codec: values cross to T on the way
// in and back to float64 on the way out, so nothing outside this package
// handles a second width. At T = float64 nothing is copied.
type wire[T tensor.Float] struct{ body[T] }

func (c wire[T]) Encode(params, prev []float64) *Update {
	p, pv := narrowed[T](params), narrowed[T](prev)
	u := c.encode(p, pv)
	release(p)
	release(pv)
	return u
}

func (c wire[T]) Decode(u *Update, prev []float64) ([]float64, error) {
	pv := narrowed[T](prev)
	out, err := c.decode(u, pv)
	release(pv)
	if err != nil {
		return nil, err
	}
	if same, ok := any(out).([]float64); ok {
		return same, nil
	}
	w := tensor.Converted[float64](out)
	tensor.PutVec(out)
	return w, nil
}

// narrowed returns v at width T: v itself at float64, otherwise a pooled
// copy for release to recycle. nil (no previous transfer) stays nil.
func narrowed[T tensor.Float](v []float64) []T {
	if same, ok := any(v).([]T); ok || v == nil {
		return same
	}
	return tensor.Converted[T](v)
}

// release recycles a narrowed copy; the caller's own slice is left alone.
func release[T tensor.Float](v []T) {
	if _, own := any(v).([]float64); !own {
		tensor.PutVec(v)
	}
}

// dense returns u's dense payload of width T (nil when u carries the
// other width).
func dense[T tensor.Float](u *Update) []T {
	if v, ok := any(u.Dense32).([]T); ok {
		return v
	}
	v, _ := any(u.Dense).([]T)
	return v
}

// denseCodec ships parameters dense at width T: verbatim ("raw"), or
// under delta the difference params − prev.
type denseCodec[T tensor.Float] struct {
	name  string
	delta bool
}

func (c denseCodec[T]) Name() string { return c.name }

func (denseCodec[T]) rounding() *frand.Source { return nil }

// linkBase returns the base an encode of v works against under delta:
// prev when the link has delivered a vector of v's length, nil (zeros)
// otherwise. A base of the wrong length — a shadow restored from another
// model's snapshot — is thereby never indexed, shorter or longer; the
// update still declares len(v) params, and the decoder's check names the
// mismatch.
func linkBase[T tensor.Float](delta bool, v, prev []T) []T {
	if !delta || len(prev) != len(v) {
		return nil
	}
	return prev
}

// encode writes the payload once — the copy, or the difference — straight
// into the pooled vector Release recycles.
func (c denseCodec[T]) encode(params, prev []T) *Update {
	u := &Update{Codec: c.name, N: len(params)}
	v := tensor.GetVec[T](len(params))
	if base := linkBase(c.delta, params, prev); base == nil {
		copy(v, params)
	} else {
		for i, p := range base {
			v[i] = params[i] - p
		}
	}
	switch v := any(v).(type) {
	case []float32:
		u.Dense32 = v
	case []float64:
		u.Dense = v
	}
	return u
}

// decode adds the base, under delta, in the pass that copies the payload
// out.
func (c denseCodec[T]) decode(u *Update, prev []T) ([]T, error) {
	if err := check(u, c.name, prev); err != nil {
		return nil, err
	}
	payload := dense[T](u)
	if len(payload) != u.N {
		return nil, fmt.Errorf("comm: %s payload has %d values, header says %d", c.name, len(payload), u.N)
	}
	out := tensor.GetVec[T](u.N)
	if !c.delta || prev == nil {
		copy(out, payload)
	} else {
		for i, p := range prev {
			out[i] = payload[i] + p
		}
	}
	return out, nil
}
