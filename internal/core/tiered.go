package core

import (
	"math"

	"fedprox/internal/model"
	"fedprox/internal/tier"
)

// RunTiered executes one federated optimization run of cfg over fl with
// hierarchical aggregation: the root coordinator fans into topo.Depth
// tiers of edge aggregators, and only the leaf tier contacts devices.
// Every aggregator below the root is an Edge — to its parent a device
// runtime whose local solve is a window: the parent's broadcast re-bases
// the edge's model, the edge runs one full synchronous round over its
// children, and the fold travels upstream as a single device reply.
// Aggregation is therefore the same weighted fold at every level, with
// an edge weighted by its subtree's training examples. The fednet process
// tree runs the same Edges over sockets and reproduces this run.
//
// The payoff is the root's ingress: per window the root receives
// K/FanOut^Depth edge replies instead of K device replies, so the
// returned History's Cost.UplinkBytes (root ingress) shrinks by ~FanOut
// while the same K devices run the same local work. Per-hop codec links
// compose: each tier encodes its broadcasts and uplinks independently,
// and on virtual-time runs topo.Model prices the aggregator legs on
// those encoded sizes, so the root's round critical path sees tier
// delay.
//
// A disabled topology delegates to RunFleet — bit-identical to the flat
// run per seed. The options an enabled one refuses are the support
// table's (support.go; README "What runs where"). Note the returned Cost
// is the root link's alone: its bytes are what crossed between the root
// and its tier-1 edges, and its DeviceEpochs the root's pseudo-epoch
// charge for them (one LocalEpochs target per edge per window) — the
// leaves' device epochs and the lower hops' bytes are accounted inside
// the edges and reported nowhere.
func RunTiered(m model.Model, fl Fleet, cfg Config, topo tier.Topology) (*History, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := topo.Validate(cfg.ClientsPerRound, fl.NumDevices()); err != nil {
		return nil, err
	}
	if !topo.Enabled() {
		return RunFleet(m, fl, cfg)
	}
	cfg = cfg.WithDefaults()

	d := &tieredRun{m: m, fl: fl, cfg: cfg, topo: topo, timed: cfg.VTime.Enabled()}
	root, err := d.build(0, 0)
	if err != nil {
		return nil, err
	}
	// The device follows the tree, whose coordinators refuse what a tier
	// cannot run first.
	d.dev = newFleetDevice(m, fl, DeviceOptions{Solver: cfg.Solver, Privacy: cfg.Privacy, Precision: cfg.Precision})
	if down, up := cfg.CommSpecs(); up.Enabled() {
		if err := d.dev.InstallLinks(down, up); err != nil {
			return nil, err
		}
	}
	if d.timed {
		root.coord.Tick(root.vt.eng.Now())
	}
	// Only the root measures: the global eval broadcast rides the
	// device-leg model exactly as in the flat drivers.
	return runToDone(root.coord, d.backend(root, func(v Evaluate) EvalResult { return simEval(m, fl, v) }))
}

// tierNode is one aggregator in the tree: its coordinator, the Edge its
// parent drives it through (nil at the root), its children (aggregators,
// or for a leaf the owned device slice), and its virtual clock.
type tierNode struct {
	coord    *Coordinator
	edge     *Edge
	children []*tierNode
	lo, hi   int     // leaf (no children): owned global device range [lo, hi)
	uid      int     // unique node index: topo.Model's "device" stream key
	vt       *vtimer // per-node engine (timed runs only)
}

// tieredRun is the driver state shared across the tree.
type tieredRun struct {
	m     model.Model
	fl    Fleet
	cfg   Config
	topo  tier.Topology
	dev   *Device // one fleet device runtime shared by every leaf
	timed bool

	nextUID int
	leafIdx int
	legSeq  int // aggregator-leg jitter/loss stream sequence
}

// build builds the aggregator at depth (0 = the root) that is
// pseudo-device id to its parent, and the whole subtree below it
// depth-first — uids and leaf slices are assigned in construction order,
// so the shape is deterministic — with every edge started and waiting for
// its first window. A node is built the same way at every depth: its
// children register with its coordinator as a wire parent's would, each
// as one pseudo-device weighted by its subtree's training examples (the
// weight the fold gives its aggregate), and on a codec run install their
// parent-facing endpoint of its links.
func (d *tieredRun) build(depth, id int) (*tierNode, error) {
	nd := &tierNode{uid: d.nextUID}
	d.nextUID++

	nc, opts := d.cfg, CoordinatorOptions{NumDevices: d.topo.FanOut, Tier: depth + 1}
	if depth == 0 {
		// The root keeps the run's own seed (same init stream as the flat
		// run), evaluation cadence, and fold semantics; only its cohort
		// changes — it contacts every tier-1 aggregator every round.
		opts.NumDevices, opts.LabelSuffix = d.topo.RootCohort(d.cfg.ClientsPerRound), d.topo.Suffix()
	} else {
		nc.Seed = tier.NodeSeed(d.cfg.Seed, nd.uid)
	}
	nc.ClientsPerRound = opts.NumDevices
	var regs []DeviceReg
	var err error
	if depth == d.topo.Depth {
		// Leaf edge: owns a contiguous slice of the fleet and selects
		// FanOut of its devices per window with its own selection stream.
		// It keeps the full device-leg virtual-time policies and the
		// straggler fraction — device tails are cut where devices reply.
		nd.lo, nd.hi = tier.Partition(d.fl.NumDevices(), d.topo.Leaves(d.cfg.ClientsPerRound), d.leafIdx)
		d.leafIdx++
		opts.NumDevices = nd.hi - nd.lo
		for g := nd.lo; g < nd.hi; g++ {
			regs = append(regs, DeviceReg{ID: g - nd.lo, TrainSize: d.fl.TrainSize(g)})
		}
	} else {
		// Aggregator of aggregators: contacts all its children every
		// window; drops on its legs come from topo.Model alone.
		nd.children = make([]*tierNode, opts.NumDevices)
		for i := range nd.children {
			if nd.children[i], err = d.build(depth+1, i); err != nil {
				return nil, err
			}
		}
		nc.StragglerFraction = 0
		nc.VTime = VTimeConfig{Model: d.cfg.VTime.Model}
	}
	if nd.coord, err = NewCoordinator(d.m, nc, opts); err != nil {
		return nil, err
	}
	for _, c := range nd.children {
		regs = append(regs, c.edge.Hosted()...)
		if d.cfg.Codec.Enabled() {
			if err := c.edge.InstallLinks(nd.coord.CommSpecs()); err != nil {
				return nil, err
			}
		}
	}
	if _, err := nd.coord.RegisterWorker(regs); err != nil {
		return nil, err
	}
	if d.timed {
		nd.vt = newVtimer(nc.VTime, nd.coord)
	}
	if depth == 0 {
		return nd, nil
	}
	if nd.edge, err = NewEdge(nd.coord, id); err != nil {
		return nil, err
	}
	return nd, nd.edge.Start(d.backend(nd, nil), nil) // no gather: the root measures the fleet itself
}

// backend gives nd the sim backend whose reply source is the node's
// children — each child's window for an aggregator, local solves on the
// shared fleet device for a leaf.
func (d *tieredRun) backend(nd *tierNode, eval func(Evaluate) EvalResult) *simBackend {
	return &simBackend{inProcess: inProcess{coord: nd.coord, vt: nd.vt, eval: eval}, serve: func(ds []Dispatch) ([]Reply, error) {
		if nd.children == nil {
			return d.solveLeaf(nd, ds)
		}
		// Child windows run sequentially in dispatch order (the
		// determinism rule); virtual time still overlaps them, since
		// every leg is priced relative to the window start.
		replies := make([]Reply, len(ds))
		for i, v := range ds {
			var err error
			if replies[i], err = d.serveChild(nd, v); err != nil {
				return nil, err
			}
		}
		return replies, nil
	}}
}

// serveChild executes one parent dispatch against a child aggregator and
// keeps the clocks: the child's window opens when the parent's broadcast
// reaches it, and the reply — the child's fold, encoded on the child's own
// parent-facing uplink when the run has codec links, so codecs compose per
// hop — is priced on the aggregator leg by its wire size.
func (d *tieredRun) serveChild(parent *tierNode, v Dispatch) (Reply, error) {
	child := parent.children[v.Device]
	seq := d.legSeq
	d.legSeq++
	start, down := math.NaN(), 0.0
	if d.timed {
		if d.topo.Model != nil {
			down = d.topo.Model.DownlinkSeconds(seq, child.uid, v.DownBytes)
		}
		start = parent.vt.eng.Now() + down
		// The child's clock joins the global timeline at the moment the
		// parent's broadcast reaches it; parent windows are monotone, so
		// the target never precedes the node's own clock by design.
		if dt := start - child.vt.eng.Now(); dt > 0 {
			child.vt.eng.Advance(dt)
		}
		child.coord.Tick(child.vt.eng.Now())
	}
	r, err := child.edge.HandleDispatch(v)
	if err != nil {
		return Reply{}, err
	}
	if d.timed {
		dur := child.vt.eng.Now() - start
		up, lost := 0.0, false
		if d.topo.Model != nil {
			up = d.topo.Model.UplinkSeconds(seq, child.uid, parent.vt.uplinkBytes(r))
			lost = d.topo.Model.Dropped(seq, child.uid)
		}
		r.Timed, r.Seq, r.Rel, r.Lost = true, seq, down+dur+up, lost
	}
	return r, nil
}

// solveLeaf serves a leaf window's dispatches on the shared fleet
// device. The edge coordinator speaks local device ids (its slice of
// the fleet); the device runtime keys shards and link state globally,
// so dispatches are remapped up and replies back down. The mapping is
// fixed for the run, so the edge-side and device-side codec chains of a
// device stay in lockstep.
func (d *tieredRun) solveLeaf(nd *tierNode, ds []Dispatch) ([]Reply, error) {
	global := make([]Dispatch, len(ds))
	for i, v := range ds {
		v.Device += nd.lo
		global[i] = v
	}
	replies, err := runDispatches(d.dev, d.cfg.Parallelism, nd.vt, global)
	for i := range replies {
		replies[i].Device -= nd.lo
	}
	return replies, err
}
