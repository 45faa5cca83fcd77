package fednet

import (
	"errors"
	"fmt"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/obs"
)

// This file drives the coordinator's asynchronous aggregation modes
// (core.AsyncTotal, core.Buffered) over real connections. Where the
// synchronous protocol runs lock-step rounds — every round as slow as
// its slowest contacted worker, the exact failure mode FedProx targets —
// the asynchronous schedule keeps MaxInFlight devices training at all
// times and folds replies into a version-stamped global model as they
// arrive, damping each contribution by its staleness alpha/(1+s)^p.
//
// All of that logic lives in core.Coordinator; this loop only owns the
// transport: per-conn reader goroutines route interleaved replies to the
// aggregator, RequestTimeout and connection errors become WorkerLost
// events (the worker's devices are evicted and its in-flight work
// charged as waste, while aggregation continues on the survivors), and
// Dispatch/Evaluate commands become pipelined TrainRequests and
// broadcast EvalRequests.
//
// Failure is a round trip, not a one-way door: the accept loop
// (Server.listen) runs for the whole run, so an evicted worker can
// reconnect. Its Hello is re-validated (same devices, same sizes, codec
// offer) and the
// coordinator re-admits the devices with reset link state on both
// endpoints — the re-admission Welcome carries the shared eval chain's
// current base so the rejoining worker decodes the next evaluation
// broadcast in lockstep.
//
// The asynchronous modes trade the sync path's bit-reproducibility for
// liveness: arrival order is real-time nondeterminism. The simulator
// executes the same coordinator against the internal/vtime virtual
// clock instead, where the trajectory is bit-reproducible.

// asyncMsg is what a per-conn reader delivers to the aggregator: one
// received envelope, or the receive error that ended the reader.
type asyncMsg struct {
	c   *conn
	env Envelope
	err error
}

// connState is the aggregator's bookkeeping for one worker connection.
type connState struct {
	c       *conn
	devices []int
	dead    bool
}

// asyncDriver owns the transport state of one asynchronous run and is
// its core.Backend: core.Drive executes the coordinator's commands, and
// Wait blocks for the next transport event and translates it.
type asyncDriver struct {
	wireOnly
	s        *Server
	conns    map[*conn]*connState
	inflight map[int]sent // device -> its outstanding TrainRequest
	replyCh  chan asyncMsg
	regCh    <-chan regMsg // mid-run registrations from Server.listen
	done     chan struct{}
	stash    []asyncMsg
	// pending holds commands provoked outside Drive's queue (an eviction
	// during a dispatch or evaluation) until the next Wait.
	pending []core.Command
}

// sent is one outstanding TrainRequest: when it went out (for
// RequestTimeout) and the Version its reply must echo.
type sent struct {
	at      time.Time
	version int
}

// trainAsync runs the asynchronous schedule, admitting the reconnecting
// workers regs delivers for as long as it runs.
func (s *Server) trainAsync(regs <-chan regMsg) (*core.History, error) {
	d := &asyncDriver{
		s:        s,
		conns:    make(map[*conn]*connState, len(s.conns)),
		inflight: make(map[int]sent),
		replyCh:  make(chan asyncMsg, len(s.conns)+64),
		regCh:    regs,
		done:     make(chan struct{}),
	}
	defer close(d.done)
	for _, c := range s.conns {
		d.conns[c] = &connState{c: c}
	}
	for id, dev := range s.devices {
		d.conns[dev.conn].devices = append(d.conns[dev.conn].devices, id)
	}
	for _, c := range s.conns {
		d.startReader(c)
	}
	return s.drive(d)
}

// startReader routes every inbound envelope of one connection (train and
// eval replies interleaved) to the aggregator. done unblocks readers
// once the aggregator returns; the deferred shutdown in RunWithListener
// closes the conns, which unblocks any reader still parked in recv.
func (d *asyncDriver) startReader(c *conn) {
	go func() {
		for {
			env, err := c.recv()
			select {
			case d.replyCh <- asyncMsg{c: c, env: env, err: err}:
			case <-d.done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
}

// Dispatch ships one TrainRequest per dispatch. A send failure means the
// worker is gone: its devices are evicted (the coordinator charges the
// in-flight work as waste) and aggregation continues.
func (d *asyncDriver) Dispatch(ds []core.Dispatch) ([]core.Reply, error) {
	for _, v := range ds {
		cs := d.conns[d.s.devices[v.Device].conn]
		req := trainRequest(v)
		var err error
		switch {
		case cs.dead:
			err = d.provoked(d.s.coord.WorkerLost([]int{v.Device}))
		case cs.c.send(Envelope{TrainRequest: &req}) != nil:
			err = d.provoked(d.failConn(cs))
		default:
			// Only a confirmed send is billed as traffic and device work.
			req.Update.Release()
			d.s.coord.DispatchSent(v.Device)
			d.inflight[v.Device] = sent{at: time.Now(), version: v.Version}
		}
		if err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// provoked queues the commands an eviction returned for the next Wait.
func (d *asyncDriver) provoked(cmds []core.Command, err error) error {
	d.pending = append(d.pending, cmds...)
	return err
}

// Evaluate runs one evaluation broadcast and reports the connections it
// lost on the way to the coordinator, however the evaluation ended.
func (d *asyncDriver) Evaluate(v core.Evaluate) (core.EvalResult, error) {
	res, lost, err := d.evalBroadcast(v)
	for _, devs := range lost {
		if werr := d.provoked(d.s.coord.WorkerLost(devs)); werr != nil {
			return res, werr
		}
	}
	return res, err
}

// Wait blocks until a transport event provokes coordinator commands.
func (d *asyncDriver) Wait() ([]core.Command, error) {
	for len(d.pending) == 0 {
		cmds, err := d.waitEvent()
		if err != nil {
			return nil, err
		}
		d.pending = cmds
	}
	cmds := d.pending
	d.pending = nil
	return cmds, nil
}

// failConn evicts a connection: closes it, clears its devices' in-flight
// bookkeeping, and reports the loss to the coordinator.
func (d *asyncDriver) failConn(cs *connState) ([]core.Command, error) {
	if cs.dead {
		return nil, nil
	}
	cs.dead = true
	_ = cs.c.close()
	for _, id := range cs.devices {
		delete(d.inflight, id)
	}
	cmds, err := d.s.coord.WorkerLost(cs.devices)
	if err != nil {
		return nil, fmt.Errorf("fednet: async %w", err)
	}
	return cmds, nil
}

// waitEvent blocks for the next transport event (a stashed message, a
// reply, a re-registration, or a timeout) and translates it into
// coordinator events.
func (d *asyncDriver) waitEvent() ([]core.Command, error) {
	s := d.s
	var m asyncMsg
	if len(d.stash) > 0 {
		m, d.stash = d.stash[0], d.stash[1:]
	} else {
		var timeout <-chan time.Time
		if s.cfg.RequestTimeout > 0 && len(d.inflight) > 0 {
			earliest := time.Time{}
			for _, req := range d.inflight {
				dl := req.at.Add(s.cfg.RequestTimeout)
				if earliest.IsZero() || dl.Before(earliest) {
					earliest = dl
				}
			}
			timeout = time.After(time.Until(earliest))
		}
		select {
		case m = <-d.replyCh:
		case reg := <-d.regCh:
			return d.admit(reg)
		case <-timeout:
			var cmds []core.Command
			now := time.Now()
			for id, req := range d.inflight {
				if now.Sub(req.at) >= s.cfg.RequestTimeout {
					more, err := d.failConn(d.conns[s.devices[id].conn])
					if err != nil {
						return nil, err
					}
					cmds = append(cmds, more...)
				}
			}
			return cmds, nil
		}
	}

	cs := d.conns[m.c]
	switch {
	case m.err != nil:
		return d.failConn(cs)
	case cs.dead:
		// A message queued by a reader before its connection was evicted.
		// It must not be delivered: after a re-admission the device may
		// have a fresh in-flight dispatch, and the stale reply would
		// alias it (decoding old bytes against the new dispatch's view).
		return nil, nil
	case m.env.TrainReply != nil:
		reply := m.env.TrainReply
		req, ok := d.inflight[reply.Device]
		if misrouted(reply, ok && s.devices[reply.Device].conn == m.c, req.version) != nil {
			// A live worker answering for a device it was not asked about
			// cannot be trusted with the ones it was: evict it.
			return d.failConn(cs)
		}
		delete(d.inflight, reply.Device)
		if reply.Err != "" {
			return nil, errors.New(reply.Err)
		}
		return s.coord.HandleReply(core.Reply{Device: reply.Device, Update: &reply.Update, EpochsDone: reply.EpochsDone})
	case m.env.EvalReply != nil:
		// A late eval reply from a conn that timed out during a previous
		// evaluation: drop it.
		return nil, nil
	default:
		return nil, fmt.Errorf("fednet: async coordinator received unexpected envelope %+v", m.env)
	}
}

// admit processes a mid-run registration: the codec offer and the device
// roster are validated (the coordinator refuses unknown devices,
// still-live devices, and changed shard sizes without disturbing the
// run), link state is reset on the coordinator's side, and the Welcome
// ships the eval chain base so the worker's fresh endpoint decodes in
// lockstep. A rejected worker gets a Welcome.Err and the run continues.
func (d *asyncDriver) admit(reg regMsg) ([]core.Command, error) {
	s := d.s
	if reg.err != nil {
		return nil, nil // the listener closed under the run: no more re-admissions
	}
	if msg := s.codecOfferError(reg.hello); msg != "" {
		_ = reg.c.send(Envelope{Welcome: &Welcome{Err: msg}})
		_ = reg.c.close()
		return nil, nil
	}
	regs := make([]core.DeviceReg, 0, len(reg.hello.Devices))
	ids := make([]int, 0, len(reg.hello.Devices))
	for _, dev := range reg.hello.Devices {
		regs = append(regs, core.DeviceReg{ID: dev.ID, TrainSize: dev.TrainSize})
		ids = append(ids, dev.ID)
	}
	cmds, err := s.coord.RegisterWorker(regs)
	if err != nil {
		// Validation refusal (unknown device, still-live device, size
		// mismatch): reject this worker, keep the run alive.
		_ = reg.c.send(Envelope{Welcome: &Welcome{Err: err.Error()}})
		_ = reg.c.close()
		return nil, nil
	}
	welcome := &Welcome{Downlink: s.downSpec, Uplink: s.upSpec, EvalPrev: s.coord.EvalResyncState()}
	if err := reg.c.send(Envelope{Welcome: welcome}); err != nil {
		// Admitted but unreachable: evict again immediately.
		_ = reg.c.close()
		more, werr := s.coord.WorkerLost(ids)
		if werr != nil {
			return nil, fmt.Errorf("fednet: async %w", werr)
		}
		return append(cmds, more...), nil
	}
	cs := &connState{c: reg.c, devices: ids}
	d.conns[reg.c] = cs
	s.conns = append(s.conns, reg.c) // shutdownWorkers releases it at run end
	for _, id := range ids {
		s.devices[id].conn = reg.c
	}
	d.startReader(reg.c)
	s.emit(obs.Event{Kind: obs.KindWorkerJoin, N: len(ids)})
	return cmds, nil
}

// evalBroadcast runs one evaluation broadcast over the live conns, stashing
// any train replies that arrive meanwhile for the aggregator to process
// afterwards. Connections that fail mid-evaluation are evicted; their
// device lists are returned for WorkerLost delivery.
func (d *asyncDriver) evalBroadcast(v core.Evaluate) (core.EvalResult, [][]int, error) {
	s := d.s
	defer obs.StartSpan(s.trace, obs.Event{Label: "fednet-eval", Device: -1}).End()
	var lost [][]int
	fail := func(cs *connState) {
		if cs.dead {
			return
		}
		cs.dead = true
		_ = cs.c.close()
		for _, id := range cs.devices {
			delete(d.inflight, id)
		}
		lost = append(lost, cs.devices)
	}

	waiting := make(map[*conn]bool)
	for _, cs := range d.conns {
		if cs.dead {
			continue
		}
		if err := cs.c.send(Envelope{EvalRequest: &EvalRequest{Seq: v.Seq, Update: *v.Update}}); err != nil {
			fail(cs)
			continue
		}
		waiting[cs.c] = true
	}
	if len(waiting) == 0 {
		return core.EvalResult{}, lost, errors.New("fednet: no live workers to evaluate on")
	}
	var all []DeviceEval
	deadline := time.Now().Add(s.cfg.RequestTimeout)
	for len(waiting) > 0 {
		var timeout <-chan time.Time
		if s.cfg.RequestTimeout > 0 {
			timeout = time.After(time.Until(deadline))
		}
		select {
		case m := <-d.replyCh:
			cs := d.conns[m.c]
			switch {
			case m.err != nil:
				delete(waiting, m.c)
				fail(cs)
			case m.env.EvalReply != nil:
				delete(waiting, m.c)
				if m.env.EvalReply.Err != "" {
					return core.EvalResult{}, lost, errors.New(m.env.EvalReply.Err)
				}
				if s.checkEvalRows(m.c, m.env.EvalReply.Devices) != nil {
					fail(cs) // malformed, like a misrouted TrainReply: evict
				} else if !cs.dead {
					all = append(all, m.env.EvalReply.Devices...)
				}
			default:
				d.stash = append(d.stash, m)
			}
		case <-timeout:
			for c := range waiting {
				fail(d.conns[c])
				delete(waiting, c)
			}
		}
	}
	if len(all) == 0 {
		return core.EvalResult{}, lost, errors.New("fednet: evaluation returned no device metrics")
	}
	loss, acc := combineEvals(all, s.weights, true)
	res := core.EvalResult{Loss: loss, Acc: acc}
	res.WireUplinkBytes, res.WireDownlinkBytes = s.BytesOnWire()
	return res, lost, nil
}
