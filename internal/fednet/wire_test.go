package fednet

import (
	"bytes"
	"io"
	"math"
	"net"
	"sync/atomic"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/frand"
)

// portable runs f with the host declared not little-endian, so the
// per-element loops — the specification — encode and decode.
func portable(f func()) {
	defer func(was bool) { hostLE = was }(hostLE)
	hostLE = false
	f()
}

// TestBulkMatchesPortable holds the bulk paths (one copy in, the
// payload's own memory out) to the per-element loops, bit for bit, on
// payloads a float comparison would not survive: random bit patterns with
// signalling NaNs planted in them, at odd lengths and N = 0, at both
// widths.
func TestBulkMatchesPortable(t *testing.T) {
	if !hostLE {
		t.Skip("a big-endian host runs the portable loops only")
	}
	rng := frand.New(21)
	for _, n := range []int{0, 1, 3, 37, 1001} {
		d64, d32 := make([]float64, n), make([]float32, n)
		for i := range d64 {
			d64[i], d32[i] = math.Float64frombits(rng.Uint64()), math.Float32frombits(uint32(rng.Uint64()))
		}
		if n > 2 {
			d64[1], d32[1] = math.Float64frombits(0x7FF0000000000001), math.Float32frombits(0x7F800001)                 // signalling
			d64[n-1], d32[n-1] = math.Float64frombits(0xFFF8000000000000|uint64(n)), math.Float32frombits(0xFFC00000|7) // quiet, with payloads
		}
		for name, u := range map[string]comm.Update{
			"f64": {Codec: "raw", N: n, Dense: d64},
			"f32": {Codec: "raw", N: n, Dense32: d32},
		} {
			e := Envelope{TrainReply: &TrainReply{Round: 1, Reply: core.Reply{Device: 2, Update: &u}}}
			bulk := appendFrame(nil, e)
			head, tail := appendVectored(nil, e)
			var spec []byte
			portable(func() { spec = appendFrame(nil, e) })
			if !bytes.Equal(bulk, spec) || !bytes.Equal(append(head, tail...), spec) {
				t.Fatalf("%s n=%d: the bulk encode differs from the per-element one", name, n)
			}
			if n > 0 && len(tail) != len(spec)-len(head) {
				t.Fatalf("%s n=%d: the payload was copied into the header buffer (tail %d bytes)", name, n, len(tail))
			}
			got, err := parseFrame(spec[4:])
			if err != nil {
				t.Fatal(err)
			}
			var want Envelope
			portable(func() { want, err = parseFrame(spec[4:]) })
			if err != nil {
				t.Fatal(err)
			}
			// Compared as re-encoded bytes: NaNs do not compare equal as floats.
			portable(func() {
				if g, w := appendFrame(nil, got), appendFrame(nil, want); !bytes.Equal(g, spec) || !bytes.Equal(w, spec) {
					t.Fatalf("%s n=%d: the bulk decode differs from the per-element one", name, n)
				}
			})
		}
	}
}

// TestVectoredMatchesContiguous: for a real message of every kind, codec
// and width, what conn.send writes — header, then the payload from where
// it lies — is appendFrame's bytes, and on a little-endian host no dense
// or packed payload is copied to get there.
func TestVectoredMatchesContiguous(t *testing.T) {
	for name, e := range wireEnvelopes(t) {
		head, tail := appendVectored(nil, e)
		if want := appendFrame(nil, e); !bytes.Equal(append(bytes.Clone(head), tail...), want) {
			t.Errorf("%s: header ‖ tail differs from the contiguous frame", name)
		}
		var u *comm.Update
		switch {
		case e.TrainRequest != nil:
			u = e.TrainRequest.Update
		case e.TrainReply != nil:
			u = e.TrainReply.Update
		case e.EvalRequest != nil:
			u = e.EvalRequest.Update
		}
		if hostLE && u != nil && (u.Dense != nil || u.Dense32 != nil || u.Packed != nil) && int64(len(tail)) < u.WireBytes()-8 {
			t.Errorf("%s: %d of the update's %d bytes left in place", name, len(tail), u.WireBytes())
		}
	}
}

// countingTCP is a *net.TCPConn that counts the plain Writes it is asked
// for. Embedding promotes net's unexported vectored-write method, so
// net.Buffers still reaches writev through it — without calling Write.
type countingTCP struct {
	*net.TCPConn
	writes atomic.Int64
}

func (c *countingTCP) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.TCPConn.Write(p)
}

// TestMeteredConnForwardsTheVector: a server-side conn is a meteredConn,
// which net.Buffers does not recognise; send must still reach the kernel
// as one vectored write per hot frame (no Write on the TCP conn under the
// meter), metered to the byte and intact at the peer. The control shows
// the count discriminates: the same vector written to the meteredConn
// itself is two Writes.
func TestMeteredConnForwardsTheVector(t *testing.T) {
	if !hostLE {
		t.Skip("a big-endian host sends contiguous frames")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	dialed, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	accepted, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer accepted.Close()

	tcp := &countingTCP{TCPConn: accepted.(*net.TCPConn)}
	var read, written atomic.Int64
	metered := meteredConn{Conn: tcp, read: &read, written: &written}
	c := newConn(metered)
	e := wireEnvelopes(t)["trainrequest/raw/f64"]
	want := appendFrame(nil, e)
	if err := c.send(e); err != nil {
		t.Fatal(err)
	}
	if n := tcp.writes.Load(); n != 0 {
		t.Errorf("a hot frame took %d plain Writes under the meter, want one vectored write and none", n)
	}
	if written.Load() != int64(len(want)) {
		t.Errorf("metered %d bytes for a %d-byte frame", written.Load(), len(want))
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(dialed, got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the peer read a different frame (err %v)", err)
	}

	head, tail := appendVectored(nil, e)
	vec := net.Buffers{head, tail}
	if _, err := vec.WriteTo(metered); err != nil {
		t.Fatal(err)
	}
	if n := tcp.writes.Load(); n != 2 {
		t.Errorf("control: writing the vector to the meteredConn itself took %d Writes, want 2", n)
	}
}
