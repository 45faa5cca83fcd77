package fednet

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/model"
)

// EdgeConfig parameterizes one edge aggregator of a fednet process
// tree: a node that accepts its own worker connections exactly like a
// coordinator, but is itself driven by a parent coordinator exactly
// like a worker.
type EdgeConfig struct {
	// Training is the edge-local schedule. Rounds, epochs, learning
	// rate, straggler policy, and codec must match the parent's so every
	// window the parent requests maps onto one edge-local round.
	// ClientsPerRound is overridden to FanOut and EvalEvery to Rounds
	// (the parent owns real evaluation; edge-local evaluations are
	// answered with NaN stubs). Asynchronous aggregation is rejected —
	// an edge is stepped by its parent's round clock.
	Training core.Config
	// ExpectDevices is how many devices must register with this edge
	// (the edge's slice of the fleet), with edge-local IDs
	// 0..ExpectDevices-1.
	ExpectDevices int
	// DeviceID is the pseudo-device index this edge registers with its
	// parent; its TrainSize is the sum of the children's, so the
	// parent's fold weights the subtree by its sample mass.
	DeviceID int
	// FanOut is how many children this edge contacts per window — its
	// coordinator's ClientsPerRound.
	FanOut int
	// Depth is the edge's distance from the root (1 = directly under
	// it); it stamps the edge's trace events with obs tier Depth. Zero
	// means 1.
	Depth int
	// RequestTimeout bounds child replies, as ServerConfig's does.
	RequestTimeout time.Duration
	// LegLatency, when positive, is slept before each reply to the
	// parent — a crude stand-in for a backbone leg when the process
	// tree runs on one machine (the -tier-latency flag).
	LegLatency time.Duration
}

// Edge is one interior node of a hierarchical fednet deployment. Its
// child-facing half is a Server whose coordinator runs in stepped mode:
// each parent TrainRequest resumes it for exactly one window (select
// FanOut children, dispatch, fold), and the folded parameters return
// upstream as a single version-stamped device reply — so the parent's
// staleness damping, selection, and accounting treat the whole subtree
// as one device, and tiers compose without new protocol.
type Edge struct {
	srv *Server
	cfg EdgeConfig
	b   *wireBackend // the child-facing transport, once run has the roster
}

// NewEdge builds an edge aggregator.
func NewEdge(mdl model.Model, cfg EdgeConfig) (*Edge, error) {
	if cfg.FanOut < 2 {
		return nil, fmt.Errorf("fednet: edge FanOut must be >= 2, got %d", cfg.FanOut)
	}
	if cfg.Training.Async.Enabled() {
		return nil, errors.New("fednet: a tier edge is stepped by its parent round clock; asynchronous aggregation is root-only")
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	t := cfg.Training
	t.ClientsPerRound = cfg.FanOut
	t.EvalEvery = t.Rounds
	t.TrackDissimilarity = false
	cfg.Training = t
	srv, err := newServerWithOptions(mdl, ServerConfig{
		Training:       t,
		ExpectDevices:  cfg.ExpectDevices,
		RequestTimeout: cfg.RequestTimeout,
	}, core.CoordinatorOptions{
		NumDevices:  cfg.ExpectDevices,
		WireEncoded: true,
		Stepped:     true,
		Tier:        cfg.Depth + 1,
		LabelSuffix: " [fednet edge]",
	})
	if err != nil {
		return nil, err
	}
	return &Edge{srv: srv, cfg: cfg}, nil
}

// BytesOnWire reports the child-facing wire traffic, as Server's does.
func (e *Edge) BytesOnWire() (read, written int64) { return e.srv.BytesOnWire() }

// Run listens for children on addr and, once they have all registered,
// dials the parent coordinator and serves both sides until the parent
// shuts the deployment down. The parent is dialed late because its
// handshake window opens at connect, and the Hello cannot be sent before
// the children are counted.
func (e *Edge) Run(addr, parent string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("fednet: listen %s: %w", addr, err)
	}
	return e.run(ln, func() (*conn, error) {
		raw, err := net.Dial("tcp", parent)
		if err != nil {
			return nil, fmt.Errorf("fednet: dial parent %s: %w", parent, err)
		}
		return newConn(raw), nil
	})
}

// RunWithConns is Run over caller-provided connections (tests use
// loopback listeners and pipes).
func (e *Edge) RunWithConns(ln net.Listener, parent *conn) error {
	return e.run(ln, func() (*conn, error) { return parent, nil })
}

// run serves children from ln (closed on return) and the parent from
// dialParent's connection. Order matters: the children must all register
// before the edge says Hello upstream, because the Hello carries the
// subtree's total sample count.
func (e *Edge) run(ln net.Listener, dialParent func() (*conn, error)) error {
	b, err := e.srv.serve(ln)
	if err != nil {
		return err
	}
	defer b.close()
	// The parent owns real evaluation (it reaches this subtree through
	// EvalRequest forwarding); the edge-local schedule's own evaluations
	// are answered with NaN so its History never pretends to hold global
	// metrics.
	b.stubEval = true
	e.b = b

	// Run the stepped coordinator to its first Pause: it snapshots the
	// initial parameters and answers its round-0 evaluation with the stub.
	if end, err := b.run(); err != nil {
		return err
	} else if _, paused := end.(core.Pause); !paused {
		return errors.New("fednet: edge coordinator finished before its first window")
	}

	// Join the parent as one pseudo-device covering the subtree.
	parent, err := dialParent()
	if err != nil {
		return err
	}
	defer parent.close()
	params := e.srv.mdl.NumParams()
	total := 0
	for _, d := range e.srv.devices {
		total += d.trainSize
	}
	welcome, err := register(parent, &Hello{
		Devices: []DeviceInfo{{ID: e.cfg.DeviceID, TrainSize: total}},
		Codecs:  comm.Names(),
	}, params)
	if err != nil {
		return err
	}
	if welcome.EvalPrev != nil {
		// Mid-run re-admission would need the edge to also resynchronize
		// every child's link state; the synchronous tier protocol never
		// re-admits, so refuse rather than decode against a stale chain.
		return errors.New("fednet: tier edges do not support mid-run re-admission")
	}
	// The parent-facing link state: training links keyed by the edge's
	// pseudo-device, plus the parent's shared eval chain — the same
	// comm state machines a worker's device runtime holds, so codecs
	// compose per hop by construction.
	links, err := comm.NewLinkState(welcome.Downlink, welcome.Uplink)
	if err != nil {
		return err
	}
	parentEval, err := comm.NewEvalLink(welcome.Downlink)
	if err != nil {
		return err
	}
	childEval, err := comm.NewEvalLink(e.srv.downSpec)
	if err != nil {
		return err
	}

	// Serve the parent. The synchronous protocol keeps one exchange
	// outstanding per device, and this edge registered exactly one, so
	// requests are strictly sequential.
	for {
		env, err := parent.recv()
		if err != nil {
			return err
		}
		var reply Envelope
		switch {
		case env.TrainRequest != nil:
			r := e.train(links, env.TrainRequest)
			reply = Envelope{TrainReply: &r}
		case env.EvalRequest != nil:
			r := e.eval(parentEval, childEval, env.EvalRequest)
			reply = Envelope{EvalReply: &r}
		case env.Shutdown != nil:
			return nil
		default:
			return fmt.Errorf("fednet: edge received unexpected envelope %+v", env)
		}
		if e.cfg.LegLatency > 0 {
			time.Sleep(e.cfg.LegLatency)
		}
		err = parent.send(reply)
		if reply.TrainReply != nil {
			reply.TrainReply.Update.Release()
		}
		if err != nil {
			return err
		}
	}
}

// train serves one parent TrainRequest: decode the broadcast view, run
// one window of the edge-local schedule re-based on it, and return the
// folded parameters as this pseudo-device's solution. EpochsDone echoes
// the parent's epoch target — the subtree ran a full window, so the
// parent's realized-work accounting sees a complete solve.
func (e *Edge) train(links *comm.LinkState, req *TrainRequest) TrainReply {
	reply := TrainReply{Round: req.Round, Version: req.Version, Device: req.Device}
	if n := e.srv.mdl.NumParams(); req.Update.N != n { // before the decode, as core.Device
		reply.Err = fmt.Sprintf("fednet: parameter length %d != model %d", req.Update.N, n)
		return reply
	}
	down, up, err := links.Link(req.Device)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	view, err := down.Decode(&req.Update, links.Prev(req.Device))
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	req.Update.Release()
	links.SetPrev(req.Device, view)
	cmds, err := e.srv.coord.Resume(view)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	// One window: until the coordinator pauses for the next parent
	// broadcast (or finishes its schedule).
	if _, err := core.Drive(e.srv.coord, e.b, cmds); err != nil {
		reply.Err = err.Error()
		return reply
	}
	reply.Update = *up.Encode(e.srv.coord.Params(), view)
	reply.EpochsDone = req.Epochs
	return reply
}

// eval serves one parent EvalRequest: decode the broadcast on the
// parent's eval chain, re-encode it on the child-facing chain, gather
// every child's contributions, and fold them into a single
// pseudo-device report — the weighted mean loss over the subtree plus
// its raw test counts, so the parent's combination is exact.
func (e *Edge) eval(parentEval, childEval *comm.EvalLink, req *EvalRequest) EvalReply {
	reply := EvalReply{Seq: req.Seq}
	if n := e.srv.mdl.NumParams(); req.Update.N != n { // before the decode, as core.Device
		reply.Err = fmt.Sprintf("fednet: parameter length %d != model %d", req.Update.N, n)
		return reply
	}
	params, err := parentEval.Receive(&req.Update)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	u, _, err := childEval.Broadcast(params)
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	evals, err := e.b.gather(core.Evaluate{Seq: req.Seq, Update: u})
	if err != nil {
		reply.Err = err.Error()
		return reply
	}
	sort.Slice(evals, func(i, j int) bool { return evals[i].Device < evals[j].Device })
	var loss float64
	var trainN, correct, testN int
	for _, ev := range evals {
		loss += e.srv.weights[ev.Device] * ev.TrainLoss
		trainN += ev.TrainN
		correct += ev.Correct
		testN += ev.TestN
	}
	reply.Devices = []DeviceEval{{Device: e.cfg.DeviceID, TrainLoss: loss, TrainN: trainN, Correct: correct, TestN: testN}}
	return reply
}
