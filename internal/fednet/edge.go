package fednet

import (
	"fmt"
	"net"
	"time"

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
	// window the parent requests maps onto one edge-local round, and Seed
	// is tier.NodeSeed(run seed, this node's uid) for the tree to
	// reproduce core.RunTiered. ClientsPerRound is overridden to FanOut;
	// EvalEvery is moot (the parent owns evaluation and the edge plans
	// none). The options an edge refuses are core's support table (README
	// "What runs where").
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

// Edge is one interior node of a hierarchical fednet deployment, and two
// thin halves around one core.Edge. Its child-facing half is a Server
// whose coordinator the core.Edge owns; its parent-facing half is the
// Worker loop that serves any device runtime, here serving the core.Edge:
// each parent TrainRequest runs exactly one window (select FanOut
// children, dispatch, fold), and the folded parameters return upstream as
// a single version-stamped device reply — so the parent's staleness
// damping, selection, and accounting treat the whole subtree as one
// device, and tiers compose without new protocol.
type Edge struct {
	srv   *Server
	cfg   EdgeConfig
	inner *core.Edge
}

// NewEdge builds an edge aggregator.
func NewEdge(mdl model.Model, cfg EdgeConfig) (*Edge, error) {
	if cfg.FanOut < 2 {
		return nil, fmt.Errorf("fednet: edge FanOut must be >= 2, got %d", cfg.FanOut)
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	cfg.Training.ClientsPerRound = cfg.FanOut
	srv, err := NewServer(mdl, ServerConfig{
		Training:       cfg.Training,
		ExpectDevices:  cfg.ExpectDevices,
		RequestTimeout: cfg.RequestTimeout,
		Tier:           cfg.Depth + 1,
	})
	if err != nil {
		return nil, err
	}
	inner, err := core.NewEdge(srv.coord, cfg.DeviceID)
	if err != nil {
		return nil, err
	}
	return &Edge{srv: srv, cfg: cfg, inner: inner}, nil
}

// BytesOnWire reports the child-facing wire traffic, as Server's does.
func (e *Edge) BytesOnWire() (read, written int64) { return e.srv.BytesOnWire() }

// RunWithListener serves children from ln, which it closes, and, once
// they have all registered, dials the parent coordinator at parent and
// serves both sides until the parent shuts the deployment down. The
// parent is dialed late because its handshake window opens at connect,
// and the Hello cannot be sent before the children are counted.
func (e *Edge) RunWithListener(ln net.Listener, parent string) error {
	return e.run(ln, func() (*conn, error) {
		raw, err := net.Dial("tcp", parent)
		if err != nil {
			return nil, fmt.Errorf("fednet: dial parent %s: %w", parent, err)
		}
		return newConn(raw), nil
	})
}

// run serves children from ln and the parent from dialParent's
// connection, which tests hand a pipe. Order matters: the children must
// all register before the edge says Hello upstream, because the Hello
// carries the subtree's total sample count.
func (e *Edge) run(ln net.Listener, dialParent func() (*conn, error)) error {
	b, err := e.srv.serve(ln)
	if err != nil {
		return err
	}
	defer b.close()
	// The parent owns evaluation: it reaches this subtree's workers through
	// the backend's gather, which the core.Edge calls per forwarded request.
	if err := e.inner.Start(b, b.gather); err != nil {
		return err
	}
	parent, err := dialParent()
	if err != nil {
		return err
	}
	defer parent.close()
	// Join the parent as one pseudo-device covering the subtree, and serve
	// it as any worker serves its device runtime.
	w := &Worker{dev: backboneLeg{e.inner, e.cfg.LegLatency}, params: e.srv.mdl.NumParams()}
	return w.Serve(parent)
}

// backboneLeg is the core.Edge with every answer to the parent held back
// by EdgeConfig.LegLatency.
type backboneLeg struct {
	*core.Edge
	latency time.Duration
}

func (l backboneLeg) HandleDispatch(d core.Dispatch) (core.Reply, error) {
	defer time.Sleep(l.latency)
	return l.Edge.HandleDispatch(d)
}

func (l backboneLeg) HandleEval(q core.EvalRequest) (core.EvalReply, error) {
	defer time.Sleep(l.latency)
	return l.Edge.HandleEval(q)
}
