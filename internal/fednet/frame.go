package fednet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"unsafe"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/tensor"
)

// ErrFrame is the one error every malformed inbound frame maps to: a
// declared length over the receiver's bound, an unknown kind or version,
// a short or inconsistent body, trailing bytes. It reaches callers
// wrapped with the connection's or device's context; test with errors.Is.
var ErrFrame = errors.New("fednet: malformed frame")

// Frame kinds (the first payload byte) and the shapes of an Update's
// payload; the package comment tabulates the layouts.
const (
	kindHello byte = 1 + iota
	kindWelcome
	kindTrainRequest // the three hot kinds end with an Update
	kindTrainReply
	kindEvalRequest
	kindEvalReply
	kindShutdown
)
const (
	shapeNone     byte = iota // the zero Update of an errored reply
	shapeDense                // N float64
	shapeDense32              // N float32
	shapePacked               // Bits, float64 Scale, packed levels
	shapePacked32             // Bits, float32 Scale, packed levels
	shapeSparse               // u32 k, k int32 indices, k float64 values
)
const (
	// wireVersion follows kindHello: a peer that speaks anything else (a
	// gob-era binary, a stray client) fails registration with ErrFrame on
	// its first frame instead of desynchronizing later.
	wireVersion byte = 0xF1
	// maxString cuts every string (error texts, codec names) so no frame
	// outgrows the slack its receiver allows.
	maxString = 1 << 10
	// frameSlack is what a receiver adds to its largest priced payload:
	// headers (≤ 128 B), an error string, a Welcome's two codec specs, a
	// Hello's codec and precision offers.
	frameSlack = 4 << 10
	// defaultFrameLimit bounds a conn no endpoint has sized yet.
	defaultFrameLimit = 64 << 10
)

// frameLimit is a receiver's payload bound: the largest body it can be
// owed, from what it already knows, plus frameSlack.
func frameLimit(sizes ...int64) int { return int(slices.Max(sizes)) + frameSlack }

var le = binary.LittleEndian

// hostLE: a float slice lies in this host's memory as on the wire, so a
// dense payload moves by one copy. Detected, not configured; where it is
// false (a big-endian host, a test that clears it) the per-element loops
// run, which are the specification the bulk path is held to.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireBytes returns v's own memory as the wire's bytes for it, or nil
// where the per-element loops must run.
func wireBytes[T tensor.Float](v []T) []byte {
	if !hostLE {
		return nil
	}
	var z T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), len(v)*int(unsafe.Sizeof(z)))
}

func appendInts(b []byte, vs ...int) []byte {
	for _, v := range vs {
		b = le.AppendUint64(b, uint64(v))
	}
	return b
}

func appendFloats(b []byte, vs ...float64) []byte {
	b = slices.Grow(b, 8*len(vs))
	for _, v := range vs {
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func appendString(b []byte, s string) []byte {
	s = s[:min(len(s), maxString)]
	return append(le.AppendUint16(b, uint16(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = le.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendSpec(b []byte, s comm.Spec) []byte {
	b = appendFloats(appendInts(appendString(b, s.Name), s.Bits), s.TopK)
	return appendString(le.AppendUint64(b, s.Seed), string(s.Precision))
}

// appendUpdate ends a frame with u: codec, N, a shape byte, then the one
// payload family u carries (chosen as Update.WireBytes chooses its
// price), verbatim and unprefixed — the rest of the frame is the
// payload, so its bytes are exactly u.WireBytes(): the scale and the
// sparse count are the priced 8/4 and 4 bytes. A dense or packed payload
// that lies in memory as the wire wants it is not copied: it is the tail
// the caller writes after b. A nil u, an errored reply's, is the zero
// Update.
func appendUpdate(b []byte, u *comm.Update) (head, tail []byte) {
	if u == nil {
		u = &comm.Update{}
	}
	b = appendInts(appendString(b, u.Codec), u.N)
	switch {
	case u.Packed != nil && u.F32:
		b = appendInts(append(b, shapePacked32), u.Bits)
		b, tail = le.AppendUint32(b, math.Float32bits(float32(u.Scale))), u.Packed
	case u.Packed != nil:
		b = appendInts(append(b, shapePacked), u.Bits)
		b, tail = appendFloats(b, u.Scale), u.Packed
	case u.Indices != nil:
		b = slices.Grow(le.AppendUint32(append(b, shapeSparse), uint32(len(u.Indices))), 12*len(u.Indices))
		for _, i := range u.Indices {
			b = le.AppendUint32(b, uint32(i))
		}
		b = appendFloats(b, u.Values...)
	case u.Dense32 != nil:
		b = append(b, shapeDense32)
		if tail = wireBytes(u.Dense32); tail == nil {
			b = slices.Grow(b, 4*len(u.Dense32))
			for _, v := range u.Dense32 {
				b = le.AppendUint32(b, math.Float32bits(v))
			}
		}
	case u.Dense != nil:
		b = append(b, shapeDense)
		if tail = wireBytes(u.Dense); tail == nil {
			b = appendFloats(b, u.Dense...)
		}
	default:
		b = append(b, shapeNone)
	}
	return b, tail
}

// appendFrame appends e, which must have exactly one field set, to b as
// one frame: [u32 payload length][payload]. It validates nothing — a
// payload inconsistent with its N is the receiver's ErrFrame. This is the
// byte-level specification conn.send's two-part write is held to.
func appendFrame(b []byte, e Envelope) []byte {
	head, tail := appendVectored(b, e)
	return append(head, tail...)
}

// appendVectored is appendFrame with an Update's payload left where it
// lies (appendUpdate): head ‖ tail is the frame, the prefix counts both.
func appendVectored(b []byte, e Envelope) (head, tail []byte) {
	start := len(b)
	b = append(b, 0, 0, 0, 0)
	switch {
	case e.TrainRequest != nil:
		d := e.TrainRequest
		b = appendInts(append(b, kindTrainRequest), d.Round, d.Version, d.Device, d.Epochs, d.EpochBudget, d.BatchSize, d.PrivacyTag)
		b = le.AppendUint64(appendFloats(b, d.Mu, d.LearningRate), d.BatchSeed)
		b, tail = appendUpdate(b, d.Update)
	case e.TrainReply != nil:
		r := e.TrainReply
		b = appendInts(append(b, kindTrainReply), r.Round, r.Version, r.Device, r.EpochsDone)
		b, tail = appendUpdate(appendString(b, r.Err), r.Update)
	case e.EvalRequest != nil:
		b, tail = appendUpdate(appendInts(append(b, kindEvalRequest), e.EvalRequest.Seq), e.EvalRequest.Update)
	case e.Hello != nil:
		h := e.Hello
		b = le.AppendUint32(append(b, kindHello, wireVersion), uint32(len(h.Devices)))
		for _, d := range h.Devices {
			b = appendInts(b, d.ID, d.TrainSize)
		}
		b = appendStrings(appendStrings(b, h.Codecs), h.Precisions)
	case e.Welcome != nil:
		w := e.Welcome
		b = appendString(appendSpec(appendSpec(append(b, kindWelcome), w.Downlink), w.Uplink), w.Err)
		if w.EvalPrev == nil { // nil and empty differ: non-nil marks a re-admission
			b = append(b, 0)
		} else {
			b = appendFloats(append(b, 1), w.EvalPrev...)
		}
	case e.EvalReply != nil:
		r := e.EvalReply
		b = le.AppendUint32(appendString(appendInts(append(b, kindEvalReply), r.Seq), r.Err), uint32(len(r.Devices)))
		for _, d := range r.Devices {
			b = appendFloats(appendInts(b, d.Device, d.TrainN, d.Correct, d.TestN), d.TrainLoss)
		}
	default:
		b = append(b, kindShutdown)
	}
	le.PutUint32(b[start:], uint32(len(b)-start-4+len(tail)))
	return b, tail
}

// frameReader walks one frame's payload. The first read past the end
// latches bad, after which every accessor returns zeros, so a parser
// reads its whole layout and checks once. No accessor allocates more than
// the bytes it has verified are present.
type frameReader struct {
	b   []byte
	bad bool
}

var zeroWord [8]byte

func (r *frameReader) take(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return zeroWord[:0] // the fixed-width accessors read a zero word
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u8() byte       { return r.take(1)[:1][0] }
func (r *frameReader) u32() uint32    { return le.Uint32(r.take(4)[:4]) }
func (r *frameReader) u64() uint64    { return le.Uint64(r.take(8)[:8]) }
func (r *frameReader) int() int       { return int(r.u64()) }
func (r *frameReader) float() float64 { return math.Float64frombits(r.u64()) }
func (r *frameReader) str() string    { return string(r.take(int(le.Uint16(r.take(2)[:2])))) }

// count reads a u32 element count and checks that that many elements of
// at least width bytes each are still in the frame, so the make it sizes
// is backed by bytes the peer actually sent.
func (r *frameReader) count(width int) int {
	n := r.u32()
	if r.bad = r.bad || uint64(n) > uint64(len(r.b)/width); r.bad {
		return 0
	}
	return int(n)
}

func (r *frameReader) strs() (out []string) {
	if n := r.count(2); n > 0 {
		out = make([]string, n)
		for i := range out {
			out[i] = r.str()
		}
	}
	return out
}

func (r *frameReader) spec() comm.Spec {
	return comm.Spec{Name: r.str(), Bits: r.int(), TopK: r.float(), Seed: r.u64(), Precision: tensor.Precision(r.str())}
}

// words decodes the rest of the frame, which must be n words of T, into a
// pooled vector: by one copy where wireBytes allows, per element elsewhere.
func words[T tensor.Float](r *frameReader, n int) []T {
	var z T
	w := int(unsafe.Sizeof(z))
	b := r.take(len(r.b))
	if r.bad = r.bad || len(b)%w != 0 || len(b)/w != n; r.bad {
		return nil
	}
	out := tensor.GetVec[T](n)
	if dst := wireBytes(out); dst != nil {
		copy(dst, b)
		return out
	}
	for i := range out {
		if w == 8 {
			out[i] = T(math.Float64frombits(le.Uint64(b[8*i:])))
		} else {
			out[i] = T(math.Float32frombits(le.Uint32(b[4*i:])))
		}
	}
	return out
}

// update decodes the Update that ends the frame into pooled slices the
// receiver owns and Releases once decoded (the package comment has the
// rule); nothing aliases the read buffer. A dense payload must be
// exactly N words and a sparse one exactly k pairs; a packed payload's
// length is comm's to check against N and Bits at decode.
func (r *frameReader) update() (u comm.Update) {
	u.Codec, u.N = r.str(), r.int()
	switch shape := r.u8(); shape {
	case shapeNone:
	case shapeDense:
		u.Dense = words[float64](r, u.N)
	case shapeDense32:
		u.Dense32 = words[float32](r, u.N)
	case shapePacked, shapePacked32:
		u.Bits, u.F32 = r.int(), shape == shapePacked32
		if u.F32 {
			u.Scale = float64(math.Float32frombits(r.u32()))
		} else {
			u.Scale = r.float()
		}
		b := r.take(len(r.b))
		u.Packed = comm.GetPacked(len(b))
		copy(u.Packed, b)
	case shapeSparse:
		k := int(r.u32())
		if r.bad = r.bad || len(r.b)%12 != 0 || len(r.b)/12 != k; r.bad {
			break
		}
		u.Indices = make([]int32, k)
		for i, b := 0, r.take(4*k); i < k; i++ {
			u.Indices[i] = int32(le.Uint32(b[4*i:]))
		}
		u.Values = words[float64](r, k)
	default:
		r.bad = true
	}
	r.bad = r.bad || u.N < 0
	return u
}

// framed is one parsed message whose core type points at its Update: the
// two share one allocation.
type framed[T any] struct {
	msg T
	u   comm.Update
}

// evalRequest is the EvalRequest frame of one evaluation broadcast.
func evalRequest(v core.Evaluate) *core.EvalRequest {
	return &core.EvalRequest{Seq: v.Seq, Update: v.Update}
}

// parseFrame decodes one frame payload (the bytes after the length
// prefix). Any layout violation, bytes left over included, is ErrFrame.
func parseFrame(p []byte) (Envelope, error) {
	r := &frameReader{b: p}
	var e Envelope
	switch kind := r.u8(); kind {
	case kindHello:
		if v := r.u8(); v != wireVersion {
			return Envelope{}, fmt.Errorf("%w: protocol byte %#x, want %#x (a peer from before the framed wire?)", ErrFrame, v, wireVersion)
		}
		h := &Hello{}
		if n := r.count(16); n > 0 {
			h.Devices = make([]core.DeviceReg, n)
			for i := range h.Devices {
				h.Devices[i] = core.DeviceReg{ID: r.int(), TrainSize: r.int()}
			}
		}
		h.Codecs, h.Precisions = r.strs(), r.strs()
		e.Hello = h
	case kindWelcome:
		w := &Welcome{Downlink: r.spec(), Uplink: r.spec(), Err: r.str()}
		if resync := r.u8(); resync == 1 {
			w.EvalPrev = words[float64](r, len(r.b)/8)
		} else {
			r.bad = r.bad || resync != 0
		}
		e.Welcome = w
	case kindEvalReply:
		q := &EvalReply{EvalReply: core.EvalReply{Seq: r.int()}, Err: r.str()}
		if n := r.count(40); n > 0 {
			q.Devices = make([]core.DeviceEval, n)
			for i := range q.Devices {
				q.Devices[i] = core.DeviceEval{Device: r.int(), TrainN: r.int(), Correct: r.int(), TestN: r.int(), TrainLoss: r.float()}
			}
		}
		e.EvalReply = q
	case kindShutdown:
		e.Shutdown = &Shutdown{}
	case kindTrainRequest:
		f := &framed[core.Dispatch]{}
		f.msg = core.Dispatch{Round: r.int(), Version: r.int(), Device: r.int(), Epochs: r.int(), EpochBudget: r.int(), BatchSize: r.int(),
			PrivacyTag: r.int(), Mu: r.float(), LearningRate: r.float(), BatchSeed: r.u64(), Update: &f.u}
		f.u, e.TrainRequest = r.update(), &f.msg
	case kindTrainReply:
		f := &framed[TrainReply]{}
		f.msg = TrainReply{Round: r.int(), Version: r.int(), Reply: core.Reply{Device: r.int(), EpochsDone: r.int(), Update: &f.u}, Err: r.str()}
		f.u, e.TrainReply = r.update(), &f.msg
	case kindEvalRequest:
		f := &framed[core.EvalRequest]{}
		f.msg = core.EvalRequest{Seq: r.int(), Update: &f.u}
		f.u, e.EvalRequest = r.update(), &f.msg
	default:
		return Envelope{}, fmt.Errorf("%w: unknown kind %d", ErrFrame, kind)
	}
	if r.bad || len(r.b) != 0 {
		return Envelope{}, fmt.Errorf("%w: kind %d body is short, inconsistent or has trailing bytes", ErrFrame, p[0])
	}
	return e, nil
}

// readFrame reads one frame from r into buf (grown as needed and
// returned for reuse) and parses it. The declared length is checked
// against limit before a byte of the body is read or allocated.
func readFrame(r io.Reader, limit int, buf []byte) (Envelope, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Envelope{}, buf, err
	}
	n := int(le.Uint32(hdr[:]))
	if n < 0 || n > limit {
		return Envelope{}, buf, fmt.Errorf("%w: declared length %d exceeds the %d-byte bound", ErrFrame, n, limit)
	}
	buf = slices.Grow(buf[:0], n)
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return Envelope{}, buf, err
	}
	e, err := parseFrame(buf[:n])
	return e, buf, err
}
