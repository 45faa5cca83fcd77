// Package fednet runs FedProx over real network connections: a
// coordinator (Server) that owns only the global model, and workers that
// own the data — the deployment shape federated learning actually has,
// where raw examples never leave the device.
//
// The protocol is length-prefixed binary frames over TCP (frame.go). Each
// worker registers the devices (shards) it hosts and the update codecs it
// supports; the coordinator answers with a Welcome carrying the codec
// specs the deployment will use (negotiated at Hello time). Every round
// the coordinator selects devices, ships the encoded global parameters
// with the round's subproblem hyperparameters and a batch-order seed, and
// aggregates the decoded returned models. Evaluation is also distributed:
// workers report per-device loss and accuracy sums and the coordinator
// combines them (core.Coordinator.CombineEvals), so the server never
// touches data.
//
// A frame is [u32 payload length][u8 kind][header][payload], all
// little-endian: ints and floats are 8 bytes, a string is a u16 length
// and its bytes (cut at 1 KiB), a list is a u32 count and its elements.
// The three hot kinds end with their comm.Update — codec string, N, a
// shape byte (none, dense f64, dense f32, packed with an f64 or f32 scale,
// sparse), Bits when packed, then the payload slices verbatim, exactly
// Update.WireBytes() of them — so the bytes on the socket are the bytes
// Cost prices plus a header that is constant per kind and codec name:
//
//	kind            message: header fields, then payload      frame − WireBytes  receiver's bound (+ 4 KiB)
//	1 Hello         Hello: version byte 0xF1; list of         —                  16·ExpectDevices
//	                core.DeviceReg (ID TrainSize); lists
//	                of codec and precision names
//	2 Welcome       Welcome: Downlink and Uplink specs        —                  8·N
//	                (Name Bits TopK Seed Precision), Err,
//	                a byte: 1 = EvalPrev's floats follow
//	3 TrainRequest  core.Dispatch: Round Version Device       96 + len(codec)    max(downlink, f64 eval
//	                Epochs EpochBudget BatchSize                                 link) WireSize(N)
//	                PrivacyTag Mu LearningRate BatchSeed;
//	                Update
//	4 TrainReply    core.Reply + Round Version Err: Round     50 + len(codec)    max(uplink WireSize(N),
//	                Version Device EpochsDone Err; Update     (+ 8 if packed)    40·ExpectDevices)
//	5 EvalRequest   core.EvalRequest: Seq; Update             24 + len(codec)    as TrainRequest
//	6 EvalReply     core.EvalReply + Err: Seq Err; list of    —                  as TrainReply
//	                core.DeviceEval (Device TrainN Correct
//	                TestN TrainLoss)
//	7 Shutdown      nothing                                   —                  any
//
// The messages are core's own: a TrainRequest decodes into the
// core.Dispatch a worker hands its device runtime as it is, and a reply
// adds to core.Reply or core.EvalReply only what core lacks (the
// Round/Version echo, a worker-side Err). One rule keeps it so: only
// frame.go builds a core message field by field (internal/archtest holds
// it), so a new dispatch field is an edit to frame.go alone. Fields the
// wire does not carry (a Dispatch's Seq, View, DownBytes; a Reply's
// Params, Gamma, clock fields; an EvalRequest's Params) arrive zero.
//
// A receiver checks the declared length against its bound before it
// reads or allocates the body, and every payload length and list count
// against the bytes left in the frame before it sizes anything; an over-long
// frame, an unknown kind or version, a short or inconsistent body or
// trailing bytes is ErrFrame, which loses the worker like any connection
// error (backend.go: a synchronous run fails, an asynchronous one
// evicts). The version byte is the only negotiation: a peer from before
// the framed wire fails registration on its first frame.
//
// No model-sized payload is allocated or copied in user space beyond one
// copy in: send writes the header from a per-connection buffer and the
// payload from the Update's own memory (one writev), recv decodes into
// pooled slices. An Update has one owner at a time (comm.Update.Release):
// the endpoint that decodes it releases it right after the decode (a
// device runtime's HandleDispatch a request, Coordinator.decodeReply a
// reply), and the endpoint that encoded it for a socket once the write
// has returned (the server a TrainRequest, a worker a TrainReply). An
// eval broadcast's Update is every connection's and is left to the
// garbage collector, as is everything on an error, eviction or timeout
// path: only a second Release, or a read after the first, is unsafe.
//
// The environment streams (selection, stragglers, batch order, init)
// come from the shared core.Coordinator — this package is a transport
// driver, not a protocol implementation — so a fednet run with the same
// seed and configuration reproduces the simulator's trajectory bit for
// bit by construction (asserted in fednet_test.go).
//
// Both aggregation disciplines pipeline over the one backend (backend.go):
// several TrainRequests may be outstanding per connection (one per
// device, each served in its own worker goroutine), and every reply is
// checked against the request it answers — device outstanding on that
// connection, Version echoed. Evaluation is one request and one reply per
// connection, the reply echoing the request's Seq.
package fednet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
)

// Hello is the worker's registration message.
type Hello struct {
	// Devices lists every shard this worker hosts, with its n_k.
	Devices []core.DeviceReg
	// Codecs lists the update codecs this worker supports. The
	// coordinator refuses the deployment (via Welcome.Err) if its
	// configured codec is not offered. An empty list offers only "raw".
	Codecs []string
	// Precisions lists the arithmetic widths this worker can execute
	// ("f64", "f32"). The coordinator refuses the deployment if its
	// configured precision is not offered. An empty list offers only
	// "f64" — the pre-precision wire vocabulary, so old workers remain
	// compatible with full-width deployments.
	Precisions []string
}

// Welcome is the coordinator's reply to a Hello: the codec negotiation
// result every endpoint must honour for the rest of the session.
type Welcome struct {
	// Downlink and Uplink are the resolved per-direction codec specs
	// (seed included), shared so worker-side streams match the
	// coordinator's and the simulator's.
	Downlink comm.Spec
	Uplink   comm.Spec
	// EvalPrev, when non-nil, is the shared evaluation link's current
	// chain base. A worker re-admitted mid-run (asynchronous deployments
	// accept reconnects) seeds its eval link with it so the next chained
	// eval broadcast decodes in lockstep; workers joining at round 0
	// receive nil.
	EvalPrev []float64
	// Err, when non-empty, aborts the session (e.g. codec not offered).
	Err string
}

// TrainReply is a device's core.Reply on the wire, plus what core does
// not carry: the Round and Version of the dispatch it answers, echoed so
// the coordinator can tell it answers the request in flight (misrouted),
// and Err, a worker-side failure ("" on success).
type TrainReply struct {
	core.Reply
	Round, Version int
	Err            string
}

// EvalReply is a worker's core.EvalReply on the wire, plus Err.
type EvalReply struct {
	core.EvalReply
	Err string
}

// Shutdown tells a worker to exit its serve loop.
type Shutdown struct{}

// Envelope is the single wire type; exactly one field is non-nil. A
// TrainRequest is a core.Dispatch and an EvalRequest a core.EvalRequest:
// the wire carries core's messages, and frame.go is the one place their
// fields meet bytes.
type Envelope struct {
	Hello        *Hello
	Welcome      *Welcome
	TrainRequest *core.Dispatch
	TrainReply   *TrainReply
	EvalRequest  *core.EvalRequest
	EvalReply    *EvalReply
	Shutdown     *Shutdown
}

// meteredConn counts the raw bytes crossing a net.Conn, so the
// coordinator can report actual serialized wire traffic (frame headers,
// handshake and evaluation messages included) alongside the codecs'
// analytic accounting.
type meteredConn struct {
	net.Conn
	read, written *atomic.Int64
}

func (m meteredConn) Read(p []byte) (int, error) {
	n, err := m.Conn.Read(p)
	m.read.Add(int64(n))
	return n, err
}

func (m meteredConn) Write(p []byte) (int, error) {
	n, err := m.Conn.Write(p)
	m.written.Add(int64(n))
	return n, err
}

// writeBuffers writes v to raw as one writev where there is one.
// net.Buffers reaches it only on net's own conn types, so a meteredConn
// forwards the vector to the conn it wraps and meters what went out —
// else every server-side frame is two writes and, under TCP_NODELAY, two
// segments. Anything else (net.Pipe, a test's tap) gets sequential Writes.
func writeBuffers(raw net.Conn, v *net.Buffers) error {
	if m, ok := raw.(meteredConn); ok {
		n, err := v.WriteTo(m.Conn)
		m.written.Add(n)
		return err
	}
	_, err := v.WriteTo(raw)
	return err
}

// conn moves Envelopes over a net.Conn as frames. Any number of
// goroutines may send (mu serializes them: each frame's header is built
// in wbuf and goes out with the Update's payload, from the Update's own
// memory, as one vectored write); one goroutine at a time may recv. limit is
// the largest payload recv accepts — each endpoint sets it from what it
// knows it can be owed (frameLimit). sendTimeout, when positive, bounds
// each send — without it a peer that stops reading (full TCP buffers)
// would block the sender in Write forever.
type conn struct {
	raw         net.Conn
	br          *bufio.Reader
	limit       int
	sendTimeout time.Duration
	mu          sync.Mutex // guards wbuf, iov, vec and the write
	wbuf        []byte
	iov         [2][]byte   // vec's backing: a frame's head and tail
	vec         net.Buffers // what send hands to writeBuffers, which consumes it
	rbuf        []byte      // the receiving goroutine's frame buffer
}

func newConn(raw net.Conn) *conn {
	return &conn{raw: raw, br: bufio.NewReader(raw), limit: defaultFrameLimit}
}

func (c *conn) send(e Envelope) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var tail []byte
	c.wbuf, tail = appendVectored(c.wbuf[:0], e)
	c.vec = append(c.iov[:0], c.wbuf)
	if len(tail) > 0 { // an empty Write can block a net.Pipe
		c.vec = append(c.vec, tail)
	}
	if c.sendTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Now().Add(c.sendTimeout))
		defer c.raw.SetWriteDeadline(time.Time{})
	}
	if err := writeBuffers(c.raw, &c.vec); err != nil {
		return fmt.Errorf("fednet: send: %w", err)
	}
	return nil
}

// recv reads and decodes the next frame. Callers own sequencing: one
// reader per connection. The Envelope shares no memory with the
// connection's buffers; an Update in it is the caller's to Release.
func (c *conn) recv() (Envelope, error) {
	e, buf, err := readFrame(c.br, c.limit, c.rbuf)
	c.rbuf = buf
	if err != nil {
		return Envelope{}, fmt.Errorf("fednet: recv: %w", err)
	}
	return e, nil
}

func (c *conn) close() error { return c.raw.Close() }
