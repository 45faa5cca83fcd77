package core

// This file is the sans-I/O device runtime: the device half of the
// FedProx protocol, mirroring the coordinator's event API on the other
// end of the link. A Device owns everything a real client owns —
//
//   - the downlink decode and its per-device codec link state (the
//     broadcast shadow a chained codec decodes against),
//   - the shared evaluation-broadcast receive chain,
//   - the local solve (any solver.LocalSolver) with the device-side
//     compute-budget truncation (variable local work: the γ-inexact
//     partial solutions the paper's framework is built to aggregate),
//   - the γ-inexactness probe,
//   - the client-side privacy hook (clip + noise before upload),
//   - the uplink encode with its stateful rounding streams and
//     error-feedback residuals,
//
// behind HandleDispatch/HandleEval, with no I/O, no clocks, and no
// goroutines of its own. Every executor drives the same type:
//
//   - core.Run hosts one Device over every shard and serves each round's
//     Dispatch commands in parallel against it,
//   - the virtual-time driver (vsim.go) solves each Dispatch eagerly on
//     the same Device and defers only the reply's arrival,
//   - fednet.Worker wraps one Device per hosted shard set and hands it
//     the Dispatch and EvalRequest each wire frame decodes into,
//   - every leaf edge of RunTiered serves its windows on one Device shared
//     across the tree.
//
// An aggregator is the same shape from above: Edge (edge.go) answers the
// same four calls — Hosted, InstallLinks, HandleDispatch, HandleEval — with
// a coordinator window where Device runs a solver, and shares this file's
// decode and reply-encode halves.
//
// Because the solve, the truncation, the privacy hook, and both codec
// endpoints run through this one type, device-side behavior cannot drift
// between the simulator and the deployment: a feature added here (like
// the epoch-budget truncation) is inherited by every executor by
// construction, and the simulator's link state lives where the
// deployment's does — on the device, not folded into the server.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fedprox/internal/comm"
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// EvalRequest asks a device runtime to evaluate the global model on every
// shard it hosts. Exactly one of Update (the encoded broadcast on the
// deployment's shared eval link) or Params (the decoded view, in-process
// drivers) is set.
type EvalRequest struct {
	// Seq matches replies to requests; eval broadcasts are strictly
	// sequential per deployment (the chained eval link depends on it).
	Seq int
	// Update is the encoded global model on the shared eval link.
	Update *comm.Update
	// Params is the decoded view for runtimes without wire links.
	Params []float64
}

// DeviceEval is one shard's contribution to the global metrics.
type DeviceEval struct {
	Device    int
	TrainLoss float64 // mean loss over the local training set
	TrainN    int
	Correct   int // correct test predictions
	TestN     int
}

// EvalReply answers an EvalRequest with per-device metric contributions,
// in ascending device order (deterministic on the wire).
type EvalReply struct {
	Seq     int
	Devices []DeviceEval
}

// DeviceOptions carries the client-side knobs of a Device.
type DeviceOptions struct {
	// Solver is the local solver; nil selects mini-batch SGD.
	Solver solver.LocalSolver
	// Privacy, when non-nil, clips and noises every local solution in
	// place before the uplink encode — the client-side half of
	// update-level DP (the server never sees the raw solution).
	Privacy *privacy.Mechanism
	// TrackGamma computes the achieved γ-inexactness of every solution
	// (one full local gradient pass per dispatch).
	TrackGamma bool
	// Trace, when non-nil, receives one obs.Event per served dispatch
	// (realized epochs, wire bytes both ways) and eval broadcast — the
	// device-side half of the observability spine, independent of the
	// coordinator's Config.Trace. Events carry no clock (Time NaN);
	// wall-clock runtimes (fednet workers) wrap the sink in
	// obs.WallClock. The sink must tolerate concurrent Emit calls:
	// dispatches for distinct hosted devices are served concurrently,
	// which is also why the deterministic simulators leave this nil and
	// trace only the coordinator.
	Trace obs.Sink
	// Precision selects the arithmetic width of the local solve and the
	// γ probe (see Config.Precision); it is handed to the solver as
	// solver.Config.Precision. tensor.F32 requires what f32Ready checks —
	// a model.Model32 model, a solver that honours the setting (SGD or
	// GD) and no Privacy mechanism — and the constructors panic otherwise
	// rather than silently running wide. InstallLinks overrides it with
	// the wire specs' negotiated precision: once links exist, the wire
	// format is the single truth both endpoints must agree on.
	Precision tensor.Precision
}

// Device is the transport-agnostic FedProx client core, hosting one or
// more device shards. Construct with NewDevice, optionally InstallLinks
// for wire codecs, then serve HandleDispatch/HandleEval events.
//
// Device is safe for concurrent use by goroutines handling distinct
// hosted devices (the link maps are mutex-guarded and per-device codec
// state is single-owner, matching the at-most-one-outstanding-request-
// per-device protocol invariant); eval receives are strictly sequential.
type Device struct {
	mdl    model.Model
	shards map[int]*data.Shard
	ids    []int // hosted device IDs, ascending
	// fleet, when non-nil, replaces shards/ids: the runtime hosts the
	// whole population lazily, materializing a device's shard only for
	// the duration of the dispatch (or eval pass) that needs it. This
	// is what keeps a 10^5–10^6-device simulated run at O(cohort)
	// memory.
	fleet data.Fleet
	local solver.LocalSolver
	priv  *privacy.Mechanism
	gamma bool
	trace obs.Sink
	prec  tensor.Precision

	// links, when installed, is the device side of the codec link state:
	// downlink decoders with the last decoded broadcast per device,
	// stateful uplink encoders, and the shared eval receive chain (in
	// process it keeps no broadcast shadow: receiveBroadcast). Nil runs
	// in-process: dispatches carry decoded views and replies carry raw
	// parameters.
	links *commLinks
}

// NewDevice builds a device runtime hosting the given shards.
func NewDevice(mdl model.Model, shards []*data.Shard, opts DeviceOptions) *Device {
	if mdl == nil || len(shards) == 0 {
		panic("core: device runtime needs a model and at least one shard")
	}
	local := opts.Solver
	if local == nil {
		local = solver.SGDSolver{}
	}
	mustRunAt(opts.Precision, mdl, local, opts.Privacy)
	byID := make(map[int]*data.Shard, len(shards))
	ids := make([]int, 0, len(shards))
	for _, s := range shards {
		byID[s.ID] = s
		ids = append(ids, s.ID)
	}
	sort.Ints(ids)
	return &Device{
		mdl:    mdl,
		shards: byID,
		ids:    ids,
		local:  local,
		priv:   opts.Privacy,
		gamma:  opts.TrackGamma,
		trace:  opts.Trace,
		prec:   opts.Precision,
	}
}

// f32Ready is the one decision of whether a runtime can execute at
// float32, shared by the constructors, InstallLinks and
// SupportsPrecision: the model has a float32 gradient, the solver runs
// at solver.Config.Precision, and no privacy hook sits between solve and
// encode. It returns what is missing, or nil.
func f32Ready(mdl model.Model, local solver.LocalSolver, priv *privacy.Mechanism) error {
	if _, ok := mdl.(model.Model32); !ok {
		return errors.New("Precision f32 needs a model with a float32 gradient (model.Model32)")
	}
	if !solver.HonoursPrecision(local) {
		return fmt.Errorf("Precision f32 needs a solver that runs at solver.Config.Precision (sgd, gd), not %q", local.Name())
	}
	if priv != nil {
		return errors.New("Precision f32 cannot be combined with a privacy mechanism (the DP hook runs at full width)")
	}
	return nil
}

// mustRunAt enforces a precision's prerequisites at construction time: a
// silent fall-back to float64 would desynchronize a wire deployment (the
// negotiated format is part of the protocol), so an impossible
// combination is a programming error, not a runtime choice.
func mustRunAt(p tensor.Precision, mdl model.Model, local solver.LocalSolver, priv *privacy.Mechanism) {
	err := p.Validate()
	if err == nil && p == tensor.F32 {
		err = f32Ready(mdl, local, priv)
	}
	if err != nil {
		panic("core: " + err.Error())
	}
}

// newFleetDevice builds a device runtime hosting every device of a lazy
// fleet. Unlike NewDevice it keeps no per-device example storage: each
// HandleDispatch materializes its device's shard from the fleet and
// releases it before returning, so resident data is bounded by the
// number of concurrent dispatches, not the population.
func newFleetDevice(mdl model.Model, fl data.Fleet, opts DeviceOptions) *Device {
	if mdl == nil || fl == nil || fl.NumDevices() == 0 {
		panic("core: fleet device runtime needs a model and a non-empty fleet")
	}
	local := opts.Solver
	if local == nil {
		local = solver.SGDSolver{}
	}
	mustRunAt(opts.Precision, mdl, local, opts.Privacy)
	return &Device{
		mdl:   mdl,
		fleet: fl,
		local: local,
		priv:  opts.Privacy,
		gamma: opts.TrackGamma,
		trace: opts.Trace,
		prec:  opts.Precision,
	}
}

// shardFor resolves a hosted device's shard. On fleet runtimes the shard
// is materialized on demand and release (non-nil only then) must be
// called when the caller is done reading it.
func (dv *Device) shardFor(id int) (shard *data.Shard, release func(), err error) {
	if dv.fleet != nil {
		if id < 0 || id >= dv.fleet.NumDevices() {
			return nil, nil, fmt.Errorf("core: device %d not hosted on this runtime", id)
		}
		s := dv.fleet.Shard(id)
		return s, func() { dv.fleet.Release(s) }, nil
	}
	s, ok := dv.shards[id]
	if !ok {
		return nil, nil, fmt.Errorf("core: device %d not hosted on this runtime", id)
	}
	return s, nil, nil
}

// trainSize is device id's train-set size, read without materializing
// its shard (0 for a device this runtime does not host).
func (dv *Device) trainSize(id int) int {
	if dv.fleet != nil && id >= 0 && id < dv.fleet.NumDevices() {
		return dv.fleet.TrainSize(id)
	} else if s := dv.shards[id]; s != nil {
		return len(s.Train)
	}
	return 0
}

// emit sends one event to the device's trace sink. Device events carry
// no clock (Time NaN): the runtime is sans-I/O, so any timestamp is the
// wrapping driver's business (obs.WallClock on wire runtimes).
func (dv *Device) emit(e obs.Event) {
	if dv.trace == nil {
		return
	}
	e.Time = math.NaN()
	dv.trace.Emit(e)
}

// InstallLinks installs the device-side wire codecs for both directions
// plus the shared eval receive chain, replacing any previous state — a
// worker calls it when the coordinator's Welcome announces the
// negotiated specs; the simulator when Config.Codec is enabled.
func (dv *Device) InstallLinks(down, up comm.Spec) error {
	links, err := newCommLinks(down, up)
	if err != nil {
		return err
	}
	// The wire specs carry the deployment's negotiated precision; adopt
	// it so the solve runs in the same width the link encodes. A spec
	// this runtime cannot execute is a negotiation error, reported here
	// rather than on the first dispatch.
	if down.Precision == tensor.F32 {
		if err := f32Ready(dv.mdl, dv.local, dv.priv); err != nil {
			return fmt.Errorf("core: f32 link specs: %w", err)
		}
	}
	dv.prec = down.Precision
	dv.links = links
	return nil
}

// SupportsPrecision reports whether this runtime can execute dispatches
// at the given width — what a fednet worker consults to build its Hello
// precision offer.
func (dv *Device) SupportsPrecision(p tensor.Precision) bool {
	if p != tensor.F32 {
		return p.Validate() == nil
	}
	return f32Ready(dv.mdl, dv.local, dv.priv) == nil
}

// SeedEvalPrev installs an eval chain base received from the server — a
// re-admitted worker joins an eval chain already in progress. A Device
// always can (the error is Edge's, which cannot).
func (dv *Device) SeedEvalPrev(prev []float64) error {
	if dv.links != nil {
		dv.links.eval.SeedPrev(prev)
	}
	return nil
}

// Hosted returns the hosted devices as registration entries, in
// ascending device order.
func (dv *Device) Hosted() []DeviceReg {
	if dv.fleet != nil {
		// Registration is the one O(population) pass: sizes only, no
		// example data is materialized.
		n := dv.fleet.NumDevices()
		out := make([]DeviceReg, n)
		for id := 0; id < n; id++ {
			out[id] = DeviceReg{ID: id, TrainSize: dv.fleet.TrainSize(id)}
		}
		return out
	}
	out := make([]DeviceReg, 0, len(dv.ids))
	for _, id := range dv.ids {
		out = append(out, DeviceReg{ID: id, TrainSize: len(dv.shards[id].Train)})
	}
	return out
}

// SolverConfig builds the local subproblem hyperparameters of this
// dispatch — the single construction site shared by the solve and the
// γ probe (and any external driver that needs it).
func (d Dispatch) SolverConfig() solver.Config {
	return solver.Config{
		LearningRate: d.LearningRate,
		BatchSize:    d.BatchSize,
		Mu:           d.Mu,
	}
}

// HandleDispatch serves one training dispatch: take the broadcast view
// (receiveBroadcast: the in-process View as it is, or a decode that
// advances this endpoint's downlink chain), run the local solve —
// truncated to the dispatch's device-side epoch budget — apply the
// privacy hook, and encode the uplink reply on the device's stateful
// encoder. The returned Reply carries the encoded update on wire
// runtimes, the raw solution otherwise, and always reports the epochs
// actually run in EpochsDone.
func (dv *Device) HandleDispatch(d Dispatch) (Reply, error) {
	shard, releaseShard, err := dv.shardFor(d.Device)
	if err != nil {
		return Reply{}, err
	}
	if releaseShard != nil {
		defer releaseShard()
	}
	view, owned, err := receiveBroadcast(dv.links, &d, dv.mdl.NumParams())
	if err != nil {
		return Reply{}, err
	}

	// Variable local work: the device, not the server, decides how much
	// of the dispatched epoch target it completes. A positive budget
	// truncates the solve; the server only learns the realized work from
	// EpochsDone.
	epochs := d.Epochs
	if d.EpochBudget > 0 && d.EpochBudget < epochs {
		epochs = d.EpochBudget
	}
	scfg := d.SolverConfig()
	scfg.Precision = dv.prec
	wk := dv.local.Solve(dv.mdl, shard.Train, view, scfg, epochs, frand.New(d.BatchSeed))
	if dv.priv != nil {
		dv.priv.Apply(wk, view, d.PrivacyTag, d.Device)
	}
	r, err := uplinkReply(dv.links, d.Device, epochs, wk, view)
	if err != nil {
		return Reply{}, err
	}
	if dv.gamma {
		// γ measures the (post-privacy) local solution against the
		// broadcast the device received, before any uplink loss.
		r.Gamma = solver.Gamma(dv.mdl, shard.Train, wk, view, scfg)
	}
	if dv.trace != nil {
		up := rawBytes(len(wk), dv.prec)
		if r.Update != nil {
			up = r.Update.WireBytes()
		}
		dv.emit(obs.Event{
			Kind: obs.KindDeviceDispatch, Round: d.Round, Seq: d.Seq, Device: d.Device,
			EpochsDone: epochs, BytesUp: up, BytesDown: d.DownBytes,
		})
	}
	// Recycle per-dispatch scratch: a view no link adopted, and wk once it
	// left as an encoded Update (a raw Reply hands it to the caller).
	if owned {
		tensor.PutVec(view)
	}
	if dv.links != nil {
		tensor.PutVec(wk)
	}
	return r, nil
}

// receiveBroadcast is the one decode rule of a device runtime, Device and
// Edge alike. An encoded broadcast is priced into d.DownBytes and
// released — the receiving endpoint is the owner (comm.Update.Release).
// A dispatch that also carries the decoded View (in process, where it is
// the coordinator's own view, bit for bit what a decode here would give)
// is trained from as it is, and this endpoint keeps no shadow of its own.
// Without one (always, on the wire) the update is checked against the
// model's size (before the decode: a first-contact topk decode allocates
// N words), decoded against this endpoint's shadow of device d.Device's
// downlink chain, and handed to the link as the chain's new base. owned
// reports a view the caller must recycle: a decoded one no link adopted.
func receiveBroadcast(links *commLinks, d *Dispatch, n int) (view []float64, owned bool, err error) {
	view = d.View
	if d.Update != nil {
		if links == nil {
			return nil, false, fmt.Errorf("core: encoded dispatch for device %d on a runtime without links", d.Device)
		}
		if view == nil {
			if d.Update.N != n {
				return nil, false, fmt.Errorf("core: parameter length %d != model %d", d.Update.N, n)
			}
			dec, _, err := links.state.Link(d.Device)
			if err != nil {
				return nil, false, err
			}
			if view, err = dec.Decode(d.Update, links.state.Prev(d.Device)); err != nil {
				return nil, false, err
			}
			owned = !links.state.SetPrev(d.Device, view)
		}
		d.DownBytes = d.Update.WireBytes()
		d.Update.Release()
	}
	if view == nil {
		return nil, false, errors.New("core: dispatch carries neither an encoded update nor a decoded view")
	}
	if len(view) != n { // only a View can be: a decode returns Update.N values
		return nil, false, fmt.Errorf("core: parameter length %d != model %d", len(view), n)
	}
	return view, owned, nil
}

// uplinkReply is the other half: device k's reply carrying wk, the
// solution it reached from view — encoded against view on the device's
// stateful uplink encoder (its rounding stream, its error-feedback
// residual) on a runtime with links, raw otherwise.
func uplinkReply(links *commLinks, k, epochs int, wk, view []float64) (Reply, error) {
	if links == nil {
		return Reply{Device: k, EpochsDone: epochs, Params: wk}, nil
	}
	_, enc, err := links.state.Link(k)
	if err != nil {
		return Reply{}, fmt.Errorf("core: device %d: %w", k, err)
	}
	return Reply{Device: k, EpochsDone: epochs, Update: enc.Encode(wk, view)}, nil
}

// HandleEval serves one evaluation broadcast: decode it on the shared
// eval chain (wire runtimes) and report every hosted shard's metric
// contribution in ascending device order.
func (dv *Device) HandleEval(e EvalRequest) (EvalReply, error) {
	view := e.Params
	if e.Update != nil {
		if dv.links == nil {
			return EvalReply{}, errors.New("core: encoded eval broadcast on a runtime without links")
		}
		if e.Update.N != dv.mdl.NumParams() { // before the decode, as HandleDispatch
			return EvalReply{}, fmt.Errorf("core: parameter length %d != model %d", e.Update.N, dv.mdl.NumParams())
		}
		v, err := dv.links.eval.Receive(e.Update)
		if err != nil {
			return EvalReply{}, err
		}
		view = v
	}
	if view == nil {
		return EvalReply{}, errors.New("core: eval request carries neither an encoded update nor a decoded view")
	}
	if len(view) != dv.mdl.NumParams() {
		return EvalReply{}, fmt.Errorf("core: parameter length %d != model %d", len(view), dv.mdl.NumParams())
	}
	hosted := dv.ids
	if dv.fleet != nil {
		n := dv.fleet.NumDevices()
		hosted = make([]int, n)
		for i := range hosted {
			hosted[i] = i
		}
	}
	reply := EvalReply{Seq: e.Seq, Devices: make([]DeviceEval, 0, len(hosted))}
	for _, id := range hosted {
		s, releaseShard, err := dv.shardFor(id)
		if err != nil {
			return EvalReply{}, err
		}
		ev := DeviceEval{Device: id, TrainN: len(s.Train), TestN: len(s.Test)}
		ev.TrainLoss, ev.Correct = metrics.ShardEval(dv.mdl, view, s)
		if releaseShard != nil {
			releaseShard()
		}
		reply.Devices = append(reply.Devices, ev)
	}
	dv.emit(obs.Event{Kind: obs.KindDeviceEval, Seq: e.Seq, N: len(hosted)})
	return reply, nil
}
