package core

import (
	"errors"
	"fmt"
	"sync"

	"fedprox/internal/comm"
	"fedprox/internal/tensor"
)

// Edge is a tier aggregator seen from its parent: a device runtime whose
// local solve is a coordinator window. FedProx's server never asks how a
// device produced its update, so an edge answers the calls a Device
// answers — Hosted, InstallLinks, HandleDispatch, HandleEval — and behind
// HandleDispatch runs one synchronous round of its own Coordinator over
// its children, on whatever Backend reaches them, returning the fold as
// its reply. RunTiered builds its tree out of Edges on simBackends;
// fednet.Edge hands one on a wireBackend to the Worker loop that serves a
// Device. The two tiers are one implementation, so a process tree
// reproduces the simulated one.
//
// HandleDispatch and HandleEval are serialised: a parent may ask for an
// evaluation while a window is in flight (an asynchronous root does), and
// both run on the one child-facing backend.
type Edge struct {
	mu     sync.Mutex
	coord  *Coordinator
	b      Backend
	id     int
	links  *commLinks // the parent-facing endpoint; nil in process without a codec
	gather func(Evaluate) ([]DeviceEval, error)
}

// NewEdge makes coord, built but not yet started, the inner coordinator of
// the edge that is pseudo-device id to its parent. From here the
// coordinator is windowed: it opens a round only when the parent
// dispatches one, and plans no evaluation — its parent owns measurement.
// coord must have been built with a Tier of at least 2, so the support
// table has refused what an edge cannot run.
func NewEdge(coord *Coordinator, id int) (*Edge, error) {
	if coord.opts.Tier < 2 {
		return nil, fmt.Errorf("core: a tier edge's coordinator needs Tier >= 2, got %d", coord.opts.Tier)
	}
	coord.windowed = true
	return &Edge{coord: coord, id: id}, nil
}

// Start starts the inner coordinator, every child registered, on b, the
// backend its commands run on. gather collects the children's rows for
// one forwarded evaluation broadcast; nil where the root measures the
// fleet itself (in process).
func (e *Edge) Start(b Backend, gather func(Evaluate) ([]DeviceEval, error)) error {
	e.b, e.gather = b, gather
	_, err := e.coord.Start() // a windowed coordinator starts paused
	return err
}

// Hosted is the edge's registration with its parent: one pseudo-device
// carrying the subtree's training examples, the weight the parent's fold
// gives its aggregate.
func (e *Edge) Hosted() []DeviceReg {
	total := 0.0
	for _, s := range e.coord.sizes {
		total += s
	}
	return []DeviceReg{{ID: e.id, TrainSize: int(total)}}
}

// InstallLinks installs the parent-facing codec endpoint — the same state
// machines a Device holds, so codecs compose per hop.
func (e *Edge) InstallLinks(down, up comm.Spec) (err error) {
	e.links, err = newCommLinks(down, up)
	return err
}

// SupportsPrecision: an edge folds at float64 and in process hands the
// fold upstream as it is, so a parent link that narrowed it to f32 would
// stop a process tree reproducing RunTiered; an f32 parent is refused at
// registration. (Its own children may still run f32.)
func (e *Edge) SupportsPrecision(p tensor.Precision) bool {
	return p != tensor.F32 && p.Validate() == nil
}

// SeedEvalPrev refuses a mid-run re-admission: it would need every
// child's link state resynchronised too, and the synchronous tier
// protocol never re-admits.
func (e *Edge) SeedEvalPrev(prev []float64) error {
	if prev != nil {
		return errors.New("core: tier edges do not support mid-run re-admission")
	}
	return nil
}

// HandleDispatch serves one parent dispatch: decode the broadcast as a
// device does, re-base the inner model on that view, run exactly one
// round over the children, and return the fold as this pseudo-device's
// solution. EpochsDone is the dispatched target: the subtree ran a full
// window, the parent's accounting charges the target, and its
// epoch-weighted fold then weighs every edge equally (an edge's real
// device work is already weighted inside its own fold).
func (e *Edge) HandleDispatch(d Dispatch) (Reply, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d.Device != e.id {
		return Reply{}, fmt.Errorf("core: device %d not hosted on this runtime", d.Device)
	}
	view, owned, err := receiveBroadcast(e.links, &d, e.coord.mdl.NumParams())
	if err != nil {
		return Reply{}, err
	}
	cmds, err := e.coord.window(view)
	if err == nil {
		_, err = Drive(e.coord, e.b, cmds)
	}
	if err != nil {
		return Reply{}, err
	}
	fold := e.coord.w
	if e.links == nil {
		fold = tensor.Converted[float64](fold) // a pooled copy: the parent's fold recycles a raw reply
	}
	r, err := uplinkReply(e.links, e.id, d.Epochs, fold, view)
	if owned {
		tensor.PutVec(view) // decoded here, and no link adopted it
	}
	return r, err
}

// HandleEval forwards one evaluation broadcast down the tree: decode it
// on the parent's eval chain, re-encode it on the child-facing one (the
// inner coordinator's, which plans no evaluation of its own), gather every
// child's rows, and fold them into a single row (CombineEvals) — the
// weighted mean loss over the subtree plus its raw test counts, so the
// parent's combination is exact.
func (e *Edge) HandleEval(req EvalRequest) (EvalReply, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.gather == nil:
		return EvalReply{}, errors.New("core: an in-process tier edge forwards no evaluation: the root measures the fleet itself")
	case req.Update == nil || e.links == nil || e.coord.links == nil:
		return EvalReply{}, errors.New("core: a tier edge forwards encoded eval broadcasts between wire links")
	case req.Update.N != e.coord.mdl.NumParams(): // before the decode, as HandleDispatch
		return EvalReply{}, fmt.Errorf("core: parameter length %d != model %d", req.Update.N, e.coord.mdl.NumParams())
	}
	params, err := e.links.eval.Receive(req.Update)
	if err != nil {
		return EvalReply{}, err
	}
	u, _, err := e.coord.links.evalBroadcast(params)
	if err != nil {
		return EvalReply{}, err
	}
	rows, err := e.gather(Evaluate{Seq: req.Seq, Update: u})
	if err != nil {
		return EvalReply{}, err
	}
	sum, _ := e.coord.CombineEvals(rows)
	sum.Device = e.id
	return EvalReply{Seq: req.Seq, Devices: []DeviceEval{sum}}, nil
}
