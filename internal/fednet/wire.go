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
// combines them, so the server never touches data.
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
//	kind            header, then payload                 frame − WireBytes  receiver's bound (+ 4 KiB)
//	1 Hello         version byte 0xF1; list of (ID,      —                  16·ExpectDevices
//	                TrainSize); lists of codec and
//	                precision names
//	2 Welcome       Downlink and Uplink specs (Name      —                  8·N
//	                Bits TopK Seed Precision), Err, a
//	                byte: 1 = EvalPrev's floats follow
//	3 TrainRequest  Round Version Device Epochs          96 + len(codec)    max(downlink, f64 eval
//	                EpochBudget BatchSize PrivacyTag                        link) WireSize(N)
//	                Mu LearningRate BatchSeed; Update
//	4 TrainReply    Round Version Device EpochsDone      50 + len(codec)    max(uplink WireSize(N),
//	                Err; Update                          (+ 8 if packed)    40·ExpectDevices)
//	5 EvalRequest   Seq; Update                          24 + len(codec)    as TrainRequest
//	6 EvalReply     Seq Err; list of (Device TrainN      —                  as TrainReply
//	                Correct TestN TrainLoss)
//	7 Shutdown      nothing                              —                  any
//
// A receiver checks the declared length against its bound before it
// reads or allocates the body, and every payload length and list count
// against the bytes left in the frame before it sizes anything; an over-long
// frame, an unknown kind or version, a short or inconsistent body or
// trailing bytes is ErrFrame, which loses the worker like any connection
// error (backend.go: a synchronous run fails, an asynchronous one evicts). The version byte is the only
// negotiation: a peer from before the framed wire fails registration on
// its first frame.
//
// No model-sized payload is allocated or copied in user space beyond one
// copy in: send writes the header from a per-connection buffer and the
// payload from the Update's own memory (one writev), recv decodes into
// pooled slices. One rule says who hands them back (comm.Update.Release).
// An Update has one owner at a time: the endpoint that decodes it releases
// it right after the decode (core.Device.HandleDispatch and Edge.train a
// request, Coordinator.decodeReply a reply), and the endpoint that encoded
// it for a socket once the write has returned (the server a TrainRequest,
// a worker or edge a TrainReply). An eval broadcast's Update is every
// connection's and is left to the garbage collector, as is everything on
// an error, eviction or timeout path: only a second Release, or a read
// after the first, is unsafe.
//
// The environment streams (selection, stragglers, batch order, init)
// come from the shared core.Coordinator — this package is a transport
// driver, not a protocol implementation — so a fednet run with the same
// seed and configuration reproduces the simulator's trajectory bit for
// bit by construction (asserted in fednet_test.go).
//
// Both aggregation disciplines pipeline over the one backend
// (backend.go): several TrainRequests may be outstanding on one
// connection (never more than one per device, and workers serve each in
// its own goroutine), a per-conn reader feeds the coordinator as replies
// arrive, and every reply is routed by TrainReply.Device and checked
// against the request it answers — device outstanding on that
// connection, Version echoed. A synchronous coordinator slots replies by
// selection index, so its trajectory does not depend on arrival order;
// under core.AsyncTotal / core.Buffered the version stamp lets it damp
// stale contributions. Evaluation is one request and one reply per
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

// DeviceInfo describes one shard a worker hosts.
type DeviceInfo struct {
	// ID is the global device index (shard ID).
	ID int
	// TrainSize is n_k, used for sampling weights and aggregation.
	TrainSize int
}

// Hello is the worker's registration message.
type Hello struct {
	// Devices lists every shard this worker hosts.
	Devices []DeviceInfo
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

// TrainRequest asks a worker to run one local solve.
type TrainRequest struct {
	// Round is the communication round index. Under asynchronous
	// aggregation it is the model-version milestone in effect at
	// dispatch (versions elapsed / versions-per-round).
	Round int
	// Version stamps the global model version the broadcast was encoded
	// at. The asynchronous coordinator computes each reply's staleness as
	// the difference between its current version and this stamp; the
	// synchronous coordinator stamps the round index (one version per
	// round).
	Version int
	// Device is the shard to train on.
	Device int
	// Update is the encoded broadcast global model wᵗ for this device's
	// downlink, decoded against the device's last decoded broadcast.
	Update comm.Update
	// Epochs is the device's epoch target for this round.
	Epochs int
	// EpochBudget is the device-side compute budget in epochs (0 =
	// unlimited): the worker's device runtime truncates its solve to
	// min(Epochs, EpochBudget) and reports the realized work in
	// TrainReply.EpochsDone (core.Config.DeviceBudget).
	EpochBudget int
	// Mu, LearningRate, BatchSize parameterize the local subproblem.
	Mu           float64
	LearningRate float64
	BatchSize    int
	// BatchSeed is the state of the device's batch-order stream.
	BatchSeed uint64
	// PrivacyTag seeds the device-side DP noise stream for this
	// dispatch: the round (synchronous) or the dispatch sequence
	// (asynchronous). Without it a worker's mechanism would reuse one
	// noise vector every round, letting an observer difference two
	// uplinks to cancel the noise exactly.
	PrivacyTag int
}

// TrainReply returns the local solution.
type TrainReply struct {
	Round int
	// Version echoes TrainRequest.Version: the model version the local
	// solve started from.
	Version int
	Device  int
	// Update is the encoded local solution for the device's uplink,
	// decoded against the broadcast view the device trained from.
	Update comm.Update
	// EpochsDone is the local epochs the device actually ran — less
	// than Epochs when TrainRequest.EpochBudget truncated the solve.
	EpochsDone int
	// Err carries a worker-side failure description ("" on success).
	Err string
}

// EvalRequest asks a worker to evaluate the global model on every shard
// it hosts. The parameters travel encoded on the deployment's shared
// eval link (downlink codec, direction comm.Eval): every worker decodes
// the same chained stream, so all evaluators hold the identical view —
// and so does the simulator under the same seed.
type EvalRequest struct {
	// Seq matches replies to requests. Eval broadcasts are strictly
	// sequential per deployment; the chained eval link depends on it.
	Seq int
	// Update is the encoded global model on the shared eval link.
	Update comm.Update
}

// DeviceEval is one shard's contribution to the global metrics — the
// core device runtime's type, shared so the wire and the runtime cannot
// disagree on what an evaluation reports.
type DeviceEval = core.DeviceEval

// EvalReply returns per-device metric contributions.
type EvalReply struct {
	Seq     int
	Devices []DeviceEval
	Err     string
}

// Shutdown tells a worker to exit its serve loop.
type Shutdown struct{}

// Envelope is the single wire type; exactly one field is non-nil.
type Envelope struct {
	Hello        *Hello
	Welcome      *Welcome
	TrainRequest *TrainRequest
	TrainReply   *TrainReply
	EvalRequest  *EvalRequest
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

// armRecvDeadline sets (d > 0) or clears (d <= 0) the connection's read
// deadline — the coordinator's guard against a dialer that never says
// Hello (a session's requests are timed from their send, backend.go).
func (c *conn) armRecvDeadline(d time.Duration) {
	if d <= 0 {
		_ = c.raw.SetReadDeadline(time.Time{})
		return
	}
	_ = c.raw.SetReadDeadline(time.Now().Add(d))
}

func (c *conn) close() error { return c.raw.Close() }
