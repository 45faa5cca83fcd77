package fednet

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/obs"
)

// This file is the package's one core.Backend: the transport under every
// coordinator that runs over real connections — a Server's synchronous
// rounds, its asynchronous modes (core.AsyncTotal, core.Buffered) and the
// windows a tier Edge's core.Edge runs over its children. All protocol
// logic lives in core.Coordinator; the backend only owns the sockets.
// Dispatch and Evaluate commands become pipelined TrainRequests and
// broadcast EvalRequests, one reader goroutine per connection routes
// whatever comes back to the goroutine driving the coordinator, and every
// way a worker can fail — a receive error, a malformed frame, a request
// unanswered for RequestTimeout, a reply nothing asked for, evaluation
// rows it cannot have, a send that does not complete — ends in failConn
// and Coordinator.WorkerLost. What that costs is the coordinator's answer
// alone: a synchronous run cannot continue without its workers and fails
// by name, an asynchronous one charges the in-flight work as waste and
// aggregates on from the survivors.
//
// Replies are fed to the coordinator in the order they arrive. A
// synchronous coordinator slots each by its selection index and folds at
// round completion, so its trajectory reproduces the simulator's bit for
// bit whatever that order was; an asynchronous one folds as it is fed,
// and its trace is the record of that order (core.Reexecute re-executes
// the run from it bit for bit).
//
// Registration before and during a run is one function (admit). While an
// asynchronous run lasts the accept loop keeps serving, so an evicted
// worker can reconnect: its Hello is validated again (same devices, same
// sizes, codec offer), the coordinator re-admits the devices with reset
// link state, and the Welcome carries the shared eval chain's base so the
// fresh endpoint decodes the next evaluation broadcast in lockstep.

// wireMsg is what a per-conn reader delivers to the driving goroutine:
// one received envelope, or the receive error that ended the reader.
type wireMsg struct {
	c   *conn
	env Envelope
	err error
}

// connState is the backend's bookkeeping for one worker connection.
type connState struct {
	c       *conn
	devices []int
	dead    bool
}

// wireBackend owns the transport state of one run: core.Drive executes
// the coordinator's commands on it, and Wait blocks for the next
// transport event and translates it. It has no ObserveLoss or
// AdvanceClock: the support table refuses adaptive-μ and virtual time.
type wireBackend struct {
	s        *Server
	conns    map[*conn]*connState
	inflight map[int]sent // device -> its outstanding TrainRequest
	replyCh  chan wireMsg
	regCh    <-chan regMsg // registrations from Server.listen; nil once the roster is closed
	stop     func()        // closes the listener
	done     chan struct{}
	stash    []wireMsg
	// pending holds commands provoked outside Drive's queue (an eviction
	// during a dispatch or evaluation) until the next Wait.
	pending []core.Command
}

// sent is one outstanding TrainRequest: when it went out (for
// RequestTimeout), and the round and Version its reply must answer.
type sent struct {
	at             time.Time
	round, version int
}

// serve starts accepting workers on ln and admits them until every
// expected device has registered; an asynchronous run keeps admitting
// until the backend, which the caller closes, is closed.
func (s *Server) serve(ln net.Listener) (*wireBackend, error) {
	regs, stop := s.listen(ln)
	b := &wireBackend{
		s:        s,
		conns:    make(map[*conn]*connState),
		inflight: make(map[int]sent),
		// Room for a cohort's replies, so a reader goes back to its socket
		// while the coordinator folds.
		replyCh: make(chan wireMsg, 64),
		regCh:   regs,
		stop:    stop,
		done:    make(chan struct{}),
	}
	for len(s.devices) < s.cfg.ExpectDevices {
		reg := <-regs
		if reg.err != nil {
			b.close()
			return nil, fmt.Errorf("fednet: accept: %w", reg.err)
		}
		// Before the run one refused worker fails the deployment.
		if _, err := b.admit(reg); err != nil {
			b.close()
			return nil, err
		}
	}
	if !s.cfg.Training.Async.Enabled() {
		// A full synchronous roster (a tier edge's always is) never
		// changes: a late or duplicate worker is refused at connect or
		// mid-handshake instead of waiting for a Welcome until the run ends.
		stop()
		b.regCh = nil
	}
	return b, nil
}

// close ends the run's transport: readers are released, the listener
// closed, and every admitted worker shut down — also when registration
// itself failed partway (a later worker refused the codec), or the
// already-welcomed workers would block in recv forever.
func (b *wireBackend) close() {
	close(b.done)
	b.stop()
	for c := range b.conns {
		_ = c.send(Envelope{Shutdown: &Shutdown{}})
		_ = c.close()
	}
}

// admit processes one registration, before or during the run: the codec
// offer and the device roster are validated (the coordinator refuses
// unknown, duplicate and still-live devices and changed shard sizes
// without disturbing a run), and the Welcome ships the negotiated specs
// and the eval chain's base (nil before the run). A refused worker is
// told why, closed, and the refusal returned. The connection's reader
// starts here, so a worker that dies before its first request still
// surfaces at the next Wait.
func (b *wireBackend) admit(reg regMsg) ([]core.Command, error) {
	s := b.s
	refuse := func(msg string) ([]core.Command, error) {
		_ = reg.c.send(Envelope{Welcome: &Welcome{Err: msg}})
		_ = reg.c.close()
		return nil, errors.New(msg)
	}
	if msg := s.codecOfferError(reg.hello); msg != "" {
		return refuse(msg)
	}
	cmds, err := s.coord.RegisterWorker(reg.hello.Devices)
	if err != nil {
		return refuse("fednet: " + err.Error())
	}
	ids := make([]int, len(reg.hello.Devices))
	for i, dev := range reg.hello.Devices {
		ids[i] = dev.ID
		s.devices[dev.ID] = reg.c
	}
	slices.Sort(ids) // the order checkEvalRows holds a reply's rows to
	b.conns[reg.c] = &connState{c: reg.c, devices: ids}
	welcome := &Welcome{Downlink: s.downSpec, Uplink: s.upSpec, EvalPrev: s.coord.EvalResyncState()}
	if err := reg.c.send(Envelope{Welcome: welcome}); err != nil {
		// Admitted but unreachable: the next Wait evicts it like any other
		// lost connection, and nothing more is written after a torn frame.
		_ = reg.c.close()
		b.stash = append(b.stash, wireMsg{c: reg.c, err: err})
	}
	b.startReader(reg.c)
	s.emit(obs.Event{Kind: obs.KindWorkerJoin, N: len(ids)})
	return cmds, nil
}

// startReader routes every inbound envelope of one connection (train and
// eval replies interleaved) to the driving goroutine. done unblocks
// readers once the run returns; close closes the conns, which unblocks
// any reader still parked in recv.
func (b *wireBackend) startReader(c *conn) {
	go func() {
		for {
			env, err := c.recv()
			select {
			case b.replyCh <- wireMsg{c: c, env: env, err: err}:
			case <-b.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// Dispatch ships each dispatch as a TrainRequest and returns no replies:
// they reach the coordinator through Wait, as they arrive. A send that
// fails loses the worker.
func (b *wireBackend) Dispatch(ds []core.Dispatch) ([]core.Reply, error) {
	for i := range ds {
		d := &ds[i]
		cs := b.conns[b.s.devices[d.Device]]
		if cs.dead {
			// Queued behind the dispatch whose send evicted this worker.
			if err := b.provoked(b.s.coord.WorkerLost([]int{d.Device})); err != nil {
				return nil, err
			}
			continue
		}
		b.inflight[d.Device] = sent{at: time.Now(), round: d.Round, version: d.Version}
		if err := cs.c.send(Envelope{TrainRequest: d}); err != nil {
			if err := b.provoked(b.failConn(cs, err)); err != nil {
				return nil, err
			}
			continue
		}
		// Only a confirmed send is billed as traffic and device work.
		d.Update.Release()
		b.s.coord.DispatchSent(d.Device)
	}
	return nil, nil
}

// provoked queues the commands an eviction returned for the next Wait.
func (b *wireBackend) provoked(cmds []core.Command, err error) error {
	b.pending = append(b.pending, cmds...)
	return err
}

// Evaluate gathers distributed metrics for one Evaluate command and
// combines them as core.Edge does (Coordinator.CombineEvals). A tier
// Edge's coordinator plans none: its parent's evaluations reach the
// children through gather alone.
func (b *wireBackend) Evaluate(v core.Evaluate) (core.EvalResult, error) {
	rows, err := b.gather(v)
	if err != nil {
		return core.EvalResult{}, err
	}
	sum, acc := b.s.coord.CombineEvals(rows)
	res := core.EvalResult{Loss: sum.TrainLoss, Acc: acc}
	res.WireUplinkBytes, res.WireDownlinkBytes = b.s.BytesOnWire()
	return res, nil
}

// Wait blocks until a transport event provokes coordinator commands.
func (b *wireBackend) Wait() ([]core.Command, error) {
	for len(b.pending) == 0 {
		cmds, err := b.waitEvent()
		if err != nil {
			return nil, err
		}
		b.pending = cmds
	}
	cmds := b.pending
	b.pending = nil
	return cmds, nil
}

// failConn is the one way a worker is lost: its connection is closed, its
// devices' in-flight bookkeeping cleared, and the loss reported to the
// coordinator. When the coordinator cannot continue without the worker
// its error comes back naming the connection, the first request it still
// owed and the cause.
func (b *wireBackend) failConn(cs *connState, why error) ([]core.Command, error) {
	if cs.dead {
		return nil, nil
	}
	cs.dead = true
	_ = cs.c.close()
	owed, first := -1, sent{}
	for _, id := range cs.devices {
		if req, ok := b.inflight[id]; ok && (owed < 0 || req.at.Before(first.at)) {
			owed, first = id, req
		}
		delete(b.inflight, id)
	}
	cmds, err := b.s.coord.WorkerLost(cs.devices)
	if err == nil {
		return cmds, nil
	}
	who := fmt.Sprint("worker ", cs.c.raw.RemoteAddr())
	if owed >= 0 {
		who += fmt.Sprintf(", round %d device %d", first.round, owed)
	}
	return nil, fmt.Errorf("fednet: %s: %w: %w", who, err, why)
}

// errTimeout is failConn's cause for a request unanswered for
// RequestTimeout.
var errTimeout = errors.New("fednet: no reply within the request timeout")

// waitEvent blocks for the next transport event (a stashed message, a
// reply, a registration, or a timeout) and translates it into
// coordinator events.
func (b *wireBackend) waitEvent() ([]core.Command, error) {
	s := b.s
	var m wireMsg
	if len(b.stash) > 0 {
		m, b.stash = b.stash[0], b.stash[1:]
	} else {
		var timeout <-chan time.Time
		if s.cfg.RequestTimeout > 0 && len(b.inflight) > 0 {
			earliest := time.Time{}
			for _, req := range b.inflight {
				dl := req.at.Add(s.cfg.RequestTimeout)
				if earliest.IsZero() || dl.Before(earliest) {
					earliest = dl
				}
			}
			timeout = time.After(time.Until(earliest))
		}
		select {
		case m = <-b.replyCh:
		case reg := <-b.regCh:
			if reg.err != nil {
				return nil, nil // the listener closed under the run: no more re-admissions
			}
			cmds, _ := b.admit(reg) // during the run a refused worker is only dropped
			return cmds, nil
		case <-timeout:
			var cmds []core.Command
			now := time.Now()
			for id, req := range b.inflight {
				if now.Sub(req.at) >= s.cfg.RequestTimeout {
					more, err := b.failConn(b.conns[s.devices[id]], errTimeout)
					if err != nil {
						return nil, err
					}
					cmds = append(cmds, more...)
				}
			}
			return cmds, nil
		}
	}

	cs := b.conns[m.c]
	switch {
	case cs.dead:
		// A message queued by a reader before its connection was evicted.
		// It must not be delivered: after a re-admission the device may
		// have a fresh in-flight dispatch, and the stale reply would
		// alias it (decoding old bytes against the new dispatch's view).
		return nil, nil
	case m.err != nil:
		return b.failConn(cs, m.err)
	case m.env.TrainReply != nil:
		reply := m.env.TrainReply
		req, ok := b.inflight[reply.Device]
		if err := misrouted(reply, ok && s.devices[reply.Device] == m.c, req.version); err != nil {
			// A live worker answering for a device it was not asked about
			// cannot be trusted with the ones it was.
			return b.failConn(cs, err)
		}
		delete(b.inflight, reply.Device)
		if reply.Err != "" {
			return nil, fmt.Errorf("fednet: round %d device %d: %s", req.round, reply.Device, reply.Err)
		}
		return s.coord.HandleReply(reply.Reply)
	default:
		// Nothing else is owed outside an evaluation, which ends only once
		// every connection has answered or been lost.
		return b.failConn(cs, fmt.Errorf("fednet: unexpected envelope %+v", m.env))
	}
}

// gather broadcasts one Evaluate to every live connection and collects
// the per-device rows (in no particular order), stashing any train
// replies that arrive meanwhile for Wait. The model travels encoded on
// the shared eval link. A connection that fails on the way, answers with
// rows it cannot have or stays silent for RequestTimeout is lost like any
// other; what that provokes waits for the next Wait.
func (b *wireBackend) gather(v core.Evaluate) ([]core.DeviceEval, error) {
	s := b.s
	defer obs.StartSpan(s.trace, obs.Event{Label: "fednet-eval", Device: -1}).End()
	waiting := make(map[*conn]bool)
	fail := func(cs *connState, why error) error {
		delete(waiting, cs.c)
		return b.provoked(b.failConn(cs, why))
	}
	q := evalRequest(v)
	for _, cs := range b.conns {
		if cs.dead {
			continue
		}
		waiting[cs.c] = true
		if err := cs.c.send(Envelope{EvalRequest: q}); err != nil {
			if err := fail(cs, err); err != nil {
				return nil, err
			}
		}
	}
	var rows []core.DeviceEval
	var timeout <-chan time.Time
	if s.cfg.RequestTimeout > 0 {
		timeout = time.After(s.cfg.RequestTimeout)
	}
	for len(waiting) > 0 {
		var err error
		select {
		case m := <-b.replyCh:
			cs, reply := b.conns[m.c], m.env.EvalReply
			switch {
			case cs.dead: // queued by its reader before the connection was lost
			case m.err != nil:
				err = fail(cs, m.err)
			case reply == nil || !waiting[m.c]:
				b.stash = append(b.stash, m)
			case reply.Err != "":
				err = errors.New(reply.Err)
			default:
				if why := checkEvalRows(cs, reply, v.Seq); why != nil {
					err = fail(cs, why)
				} else {
					delete(waiting, m.c)
					rows = append(rows, reply.Devices...)
				}
			}
		case <-timeout:
			for c := range waiting {
				if err = fail(b.conns[c], errTimeout); err != nil {
					break
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if len(rows) == 0 {
		return nil, errors.New("fednet: evaluation returned no device metrics")
	}
	return rows, nil
}
