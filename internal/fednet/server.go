package fednet

import (
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/model"
	"fedprox/internal/obs"
)

// ServerConfig parameterizes a coordinator.
type ServerConfig struct {
	// Training carries the federated hyperparameters; the options a
	// fednet coordinator refuses are core's support table (README "What
	// runs where"). Training.Async selects the aggregation discipline:
	// the default synchronous rounds reproduce the simulator bit for bit;
	// AsyncTotal and Buffered trade that determinism for straggler
	// tolerance.
	Training core.Config
	// ExpectDevices is the total number of devices that must register
	// (across all workers) before training starts. Device IDs must cover
	// exactly 0..ExpectDevices-1 so the environment streams line up with
	// the simulator's.
	ExpectDevices int
	// RequestTimeout bounds how long one request (a TrainRequest, an
	// evaluation broadcast) may stay unanswered, measured from its send,
	// and how long any single send may block, before the worker is
	// declared dead (zero waits forever). It is per request, not per
	// connection: a live worker that answers its other devices but drops
	// one request is caught too, as is one that stops reading. The
	// synchronous protocol fails the run on a timed-out worker; the
	// asynchronous modes evict its devices and aggregate from the rest.
	RequestTimeout time.Duration
	// Tier is 1 + this coordinator's depth in a hierarchical deployment
	// (1 = the tree's root, whose devices are edge aggregators); 0 is an
	// untiered flat deployment. Trace events carry Tier-1 so `fedtrace
	// summary` can roll dispatches and stragglers up by tier.
	Tier int
}

// Server is the federated coordinator's transport: it owns the worker
// connections and the wire protocol, and never sees training data. All
// protocol decisions — selection, straggler policies, aggregation and
// the staleness-damped folds, accounting — happen in the shared
// core.Coordinator; this package only ships its Dispatch and Evaluate
// commands as TrainRequest/EvalRequest frames and feeds worker replies,
// losses, and (re-)registrations back as events. Cross-executor
// equivalence with the simulator therefore holds by construction.
type Server struct {
	mdl   model.Model
	cfg   ServerConfig
	coord *core.Coordinator

	// downSpec/upSpec are the negotiated codec specs ("raw" when the
	// training config carries no codec, so the wire always moves
	// comm.Updates; core.Cost prices either the same).
	downSpec comm.Spec
	upSpec   comm.Spec

	// bytesIn/bytesOut meter actual serialized traffic across all worker
	// connections.
	bytesIn, bytesOut atomic.Int64

	devices map[int]*conn // device ID -> the connection hosting it

	// trace mirrors Training.Trace for transport-level events the
	// coordinator core never sees: worker registration and the distributed
	// evaluation span. Server events are always untimed (Time NaN) — a
	// deployment wraps the sink in obs.WallClock for wall-clock stamps.
	trace obs.Sink
}

// NewServer builds a coordinator for the given model and configuration.
func NewServer(mdl model.Model, cfg ServerConfig) (*Server, error) {
	suffix := " [fednet]"
	if cfg.Tier > 1 { // the child-facing half of a tier Edge
		suffix = " [fednet edge]"
	}
	coord, err := core.NewCoordinator(mdl, cfg.Training, core.CoordinatorOptions{
		NumDevices: cfg.ExpectDevices,
		Tier:       cfg.Tier,
		// The wire protocol always carries encoded updates; no codec
		// means raw, which reproduces the uncompressed trajectory bit
		// for bit and, by core.Cost's one rule, its Cost.
		WireEncoded: true,
		LabelSuffix: suffix,
	})
	if err != nil {
		return nil, err
	}
	down, up := coord.CommSpecs()
	return &Server{
		mdl:      mdl,
		cfg:      cfg,
		coord:    coord,
		downSpec: down,
		upSpec:   up,
		devices:  make(map[int]*conn),
		trace:    cfg.Training.Trace,
	}, nil
}

// emit reports one transport-level event. Server events carry no virtual
// clock; Time is NaN so an obs.WallClock wrapper can stamp them.
func (s *Server) emit(e obs.Event) {
	if s.trace == nil {
		return
	}
	e.Time = math.NaN()
	s.trace.Emit(e)
}

// BytesOnWire returns the actual serialized bytes moved over all worker
// connections so far: read is worker→coordinator traffic (uplink),
// written is coordinator→worker (downlink). Both include frame headers
// and the handshake and evaluation messages, which the analytic Cost
// accounting excludes.
func (s *Server) BytesOnWire() (read, written int64) {
	return s.bytesIn.Load(), s.bytesOut.Load()
}

// RunWithListener serves ln, which it closes: it waits for every device
// to register, executes the training schedule, shuts the workers down,
// and returns the trajectory. A synchronous run closes ln once every
// device has registered, an asynchronous one when it ends — it keeps
// admitting for the whole run, so an evicted worker can reconnect and be
// re-admitted. Workers that registered are always shut down.
func (s *Server) RunWithListener(ln net.Listener) (*core.History, error) {
	b, err := s.serve(ln)
	if err != nil {
		return nil, err
	}
	defer b.close()
	cmds, err := s.coord.Start()
	if err == nil {
		_, err = core.Drive(s.coord, b, cmds)
	}
	if err != nil {
		return nil, err
	}
	return s.coord.History(), nil
}

// regMsg is one registration attempt: a connection whose first frame was
// a valid Hello, or the Accept error that ended the accept loop.
type regMsg struct {
	c     *conn
	hello *Hello
	err   error
}

// listen starts the accept loop that serves ln until stop closes it:
// every accepted connection gets its own handshake goroutine, so one that
// never speaks (or speaks garbage) costs a socket for the handshake
// window and nothing else, and each valid Hello is delivered on regs.
// After stop (idempotent), handshakes still in flight close their sockets.
func (s *Server) listen(ln net.Listener) (regs <-chan regMsg, stop func()) {
	ch := make(chan regMsg)
	done := make(chan struct{})
	deliver := func(m regMsg) bool {
		select {
		case ch <- m:
			return true
		case <-done:
			return false
		}
	}
	go func() {
		for {
			raw, err := ln.Accept()
			if err != nil {
				deliver(regMsg{err: err})
				return
			}
			c := s.newMeteredConn(raw)
			go func() {
				hello, err := s.handshake(c)
				if err != nil || !deliver(regMsg{c: c, hello: hello}) {
					_ = c.close()
				}
			}()
		}
	}()
	return ch, sync.OnceFunc(func() { close(done); ln.Close() })
}

// handshake reads a new connection's first frame, which must be a Hello
// no larger than ExpectDevices entries, within RequestTimeout (30 s when
// unset), and then sizes the connection for the session's replies.
func (s *Server) handshake(c *conn) (*Hello, error) {
	wait := s.cfg.RequestTimeout
	if wait <= 0 {
		wait = 30 * time.Second
	}
	c.limit = frameLimit(16 * int64(s.cfg.ExpectDevices))
	// A read deadline for the Hello alone: a session's requests are timed
	// from their send (backend.go).
	_ = c.raw.SetReadDeadline(time.Now().Add(wait))
	env, err := c.recv()
	_ = c.raw.SetReadDeadline(time.Time{})
	if err != nil {
		return nil, err
	}
	if env.Hello == nil {
		return nil, fmt.Errorf("%w: first frame is not a Hello", ErrFrame)
	}
	c.limit = frameLimit(s.upSpec.WireSize(s.mdl.NumParams()), 40*int64(s.cfg.ExpectDevices))
	return env.Hello, nil
}

// newMeteredConn wraps an accepted connection with byte metering and the
// send timeout: a worker that stops reading must surface as a send
// error, not block the coordinator in Write with its TCP buffers full.
func (s *Server) newMeteredConn(raw net.Conn) *conn {
	c := newConn(meteredConn{Conn: raw, read: &s.bytesIn, written: &s.bytesOut})
	c.sendTimeout = s.cfg.RequestTimeout
	return c
}

// codecOfferError is the single codec-negotiation rule: the worker must
// offer both directions' codecs (an empty offer means raw only). It
// returns the rejection message, or "" when the offer is acceptable.
func (s *Server) codecOfferError(hello *Hello) string {
	offered := hello.Codecs
	if len(offered) == 0 {
		offered = []string{"raw"}
	}
	for _, want := range []string{s.downSpec.Name, s.upSpec.Name} {
		if !slices.Contains(offered, want) {
			return fmt.Sprintf("fednet: coordinator requires codec %q, worker offers %v", want, offered)
		}
	}
	precs := hello.Precisions
	if len(precs) == 0 {
		precs = []string{"f64"}
	}
	if want := s.downSpec.Precision.String(); !slices.Contains(precs, want) {
		return fmt.Sprintf("fednet: coordinator requires precision %q, worker offers %v", want, precs)
	}
	return ""
}

// misrouted reports why r cannot answer a request in flight: outstanding
// says whether r.Device has one on the connection r arrived on, version
// is that request's stamp. Folding such a reply would credit one device
// with another's solution, or a stale solve with a fresh version.
func misrouted(r *TrainReply, outstanding bool, version int) error {
	switch {
	case !outstanding:
		return fmt.Errorf("fednet: reply for device %d, which has no request outstanding on this connection", r.Device)
	case r.Version != version:
		return fmt.Errorf("fednet: reply for device %d echoes version %d, its request was stamped %d", r.Device, r.Version, version)
	}
	return nil
}

// checkEvalRows is the one ingest point of a worker's evaluation rows.
// Combining them acts on a peer's word; what makes that unsafe is a reply
// to another evaluation than seq (its rows measure a different model),
// rows other than one per device cs hosts, ascending (as core.EvalReply
// says) — a device outside the roster or another connection's, a repeat,
// or a missing one, whose loss the combination would rescale away as if
// the device were evicted — a non-finite loss, or a correct count outside
// [0, TestN].
func checkEvalRows(cs *connState, r *EvalReply, seq int) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("fednet: %v answered evaluation %d (seq %d) with "+format, append([]any{cs.c.raw.RemoteAddr(), seq, r.Seq}, args...)...)
	}
	for i := range max(len(cs.devices), len(r.Devices)) {
		switch {
		case i >= len(cs.devices):
			return bad("an extra row, for device %d", r.Devices[i].Device)
		case i >= len(r.Devices) || r.Devices[i].Device != cs.devices[i]:
			return bad("no row for its device %d in place %d", cs.devices[i], i)
		}
		if ev := r.Devices[i]; r.Seq != seq || math.IsNaN(ev.TrainLoss) || math.IsInf(ev.TrainLoss, 0) || ev.Correct < 0 || ev.Correct > ev.TestN {
			return bad("a row it cannot have of device %d: %+v", ev.Device, ev)
		}
	}
	return nil
}
