package core

// This file, coord_sync.go and coord_async.go are the sans-I/O
// coordinator: every server-side decision of the FedProx protocol —
// device selection, straggler plans and policies, synchronous
// aggregation, the staleness-damped asynchronous folds, adaptive-μ
// control, codec link state, privacy hooks, and History/Cost accounting —
// lives here, behind an event-driven API with no I/O, no clocks, no
// serialization and no goroutines (internal/archtest holds the package to
// it: no file here imports os, io, net, time or encoding/…; a run's
// resumable state leaves as a typed Snapshot, config.go, for its
// Checkpointer to encode). This file holds what both modes share: a
// dispatch is built by dispatch and charged by DispatchSent, and a reply
// is decoded and realized by HandleReply, judged by judge, and charged
// and traced by settle — the sync round calls those at its cut and
// completion, the async schedule at each arrival.
//
// The coordinator consumes events (RegisterWorker, HandleReply, Tick,
// WorkerLost, EvalDone, LossObserved) and emits commands (Dispatch,
// Evaluate, ObserveLoss, AdvanceClock, Done). One interpreter, core.Drive
// (drive.go), executes them against a Backend; the executors are its
// backends, each with the abilities (drive.go) its commands need:
//
//   - simBackend (run.go): the in-process synchronous simulator (parallel
//     local solves, AdvanceClock on the optional virtual clock) — also
//     sync replay and every node of RunTiered, by swapping its reply
//     source; RunFleet's fleetBackend adds ObserveLoss,
//   - vtimeBackend (vsim.go): the deterministic discrete-event executor
//     of the asynchronous modes on the internal/vtime clock, and async
//     replay; Wait steps the event queue,
//   - internal/fednet: the TCP runtime (sync, async, a tier edge's
//     children), which ships a Dispatch as a TrainRequest frame and an
//     Evaluate as an EvalRequest, and Waits on its sockets,
//   - tapeBackend (replay.go): Reexecute's re-run of a fednet trace,
//     whose Wait feeds the recorded arrival order,
//   - internal/feddane: the Appendix B baseline, which solves a round's
//     cohort in process with the gradient-correction term.
//
// A tier edge is not a fourth executor but a device runtime (edge.go):
// core.Edge owns a coordinator on one of the backends above and runs it a
// round at a time, one window per dispatch its parent sends.
//
// Because all aggregation arithmetic and every environment-stream draw
// happens here, cross-executor equivalence (same seed ⇒ bit-identical
// History) holds by construction: the backends only translate transport
// events and cannot drift from each other.
//
// Event methods return the commands Drive must execute, in order.
// At most one "waiting" command (Evaluate, ObserveLoss) is in flight at a
// time, and Drive answers an Evaluate before it delivers another reply:
// a reply that arrives while an evaluation is pending is an error. A
// backend that can receive one then (fednet's) holds it until EvalDone.

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"fedprox/internal/comm"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/tensor"
)

// DeviceReg registers one device a worker hosts.
type DeviceReg struct {
	// ID is the global device index in [0, NumDevices).
	ID int
	// TrainSize is n_k, the device's local training-set size.
	TrainSize int
}

// CoordinatorOptions carries the driver-shape knobs of a Coordinator.
type CoordinatorOptions struct {
	// NumDevices is N, the total number of devices that must register
	// before Start.
	NumDevices int
	// WireEncoded forces every transfer through a codec link even when
	// Config.Codec is disabled: the raw codec is installed so Dispatch
	// and Evaluate carry encoded comm.Updates (the fednet wire always
	// moves Updates). Cost prices it as the uncoded run (see Cost).
	WireEncoded bool
	// LabelSuffix is appended to the History label (fednet: " [fednet]").
	LabelSuffix string
	// Tier is 1 + the coordinator's depth in a tiered topology (1 =
	// root, 2 = its children, ...); 0 means untiered. Events emitted by
	// a tiered coordinator carry Tier-1 in obs.Event.Tier, so traces
	// distinguish root decisions (tier 0) from edge decisions (tier ≥ 1)
	// while untiered runs keep emitting the field's absent value (-1).
	Tier   int
	replay bool // Replay's coordinator, for the support table
}

// Command is one instruction the coordinator asks its driver to execute.
type Command interface{ isCommand() }

// Dispatch instructs the driver to run one local solve on a device: ship
// the broadcast (Update on the wire, View in process), solve the
// subproblem at (Mu, LearningRate, BatchSize) for Epochs epochs with the
// batch order seeded by BatchSeed, and deliver the result as a Reply.
type Dispatch struct {
	// Seq is the dispatch sequence number (asynchronous modes: it names
	// the environment and latency streams; synchronous rounds: the
	// position within the round's selection).
	Seq int
	// Round is the communication round (sync) or model milestone (async)
	// at dispatch time.
	Round int
	// Version is the global model version of the broadcast snapshot.
	Version int
	// Device is the target device.
	Device int
	// Epochs is the device's epoch target for this dispatch.
	Epochs int
	// EpochBudget is the device-side compute budget in epochs (0 =
	// unlimited): the device truncates its solve to min(Epochs,
	// EpochBudget) and reports the realized work in Reply.EpochsDone.
	// Drawn from Config.DeviceBudget — the variable-local-work axis,
	// enforced by the device runtime, never re-planned by the server.
	EpochBudget int
	// Mu, LearningRate, BatchSize parameterize the local subproblem.
	Mu           float64
	LearningRate float64
	BatchSize    int
	// BatchSeed is the state of the device's mini-batch order stream.
	BatchSeed uint64
	// PrivacyTag seeds the device's privacy noise stream for this
	// dispatch: the round (synchronous) or the dispatch sequence
	// (asynchronous).
	PrivacyTag int
	// Update is the encoded broadcast (nil when the run has no wire
	// encoding — the plain in-process simulator).
	Update *comm.Update
	// View is the decoded broadcast view the device trains from;
	// in-process drivers solve against it directly.
	View []float64
	// DownBytes is the broadcast's wire size (the uncompressed parameter
	// bytes without a codec).
	DownBytes int64
}

func (Dispatch) isCommand() {}

// Evaluate instructs the driver to measure the global model: compute the
// network training loss and test accuracy at Params (or ship Update to
// distributed evaluators) and deliver an EvalResult via EvalDone.
type Evaluate struct {
	// Round is the milestone being recorded.
	Round int
	// Seq is the evaluation broadcast sequence (the shared eval link
	// chains on it).
	Seq int
	// Update is the encoded eval broadcast (nil without wire encoding).
	Update *comm.Update
	// Params is the decoded view the evaluation happens at.
	Params []float64
	// WireBytes is the encoded broadcast size (virtual-time drivers
	// charge the transfer to their clock).
	WireBytes int64
	// TrackDissimilarity asks the driver to also fill
	// EvalResult.GradVar/B.
	TrackDissimilarity bool
}

func (Evaluate) isCommand() {}

// ObserveLoss asks the driver for the global training loss at Params (the
// adaptive-μ controller observes it every round); answer via
// LossObserved.
type ObserveLoss struct{ Params []float64 }

func (ObserveLoss) isCommand() {}

// AdvanceClock instructs a virtual-time backend to charge Seconds to its
// clock (a synchronous round's critical path). It is emitted only for
// rounds whose replies were Timed, so a backend without a clock never
// sees it.
type AdvanceClock struct{ Seconds float64 }

func (AdvanceClock) isCommand() {}

// pause ends a windowed coordinator's Drive between rounds: the round it
// was asked for is folded and the next opens with Edge's next window.
type pause struct{}

func (pause) isCommand() {}

// Done reports that the schedule is complete and History() is final.
type Done struct{}

func (Done) isCommand() {}

// Reply delivers one device's training result to the coordinator.
// Exactly one of Update (encoded uplink, wire runtimes) or Params (raw
// local solution, in-process runtimes without links) is set — both are
// produced by core.Device.HandleDispatch. Either one is handed over:
// HandleReply releases the Update and recycles the Params after the fold.
type Reply struct {
	Device int
	Update *comm.Update
	Params []float64
	// EpochsDone is the local epochs the device actually ran — less than
	// the dispatched target when a device-side budget truncated the
	// solve. Only read when Config.DeviceBudget is configured; the
	// accounting otherwise charges the dispatched epochs unchanged.
	EpochsDone int
	// Gamma is the device's achieved γ-inexactness (only read under
	// Config.TrackGamma).
	Gamma float64
	// Timed marks a virtual-time reply: Seq carries the transfer
	// sequence and Rel the reply's own latency — relative to the round's
	// broadcast for synchronous replies, to its dispatch for
	// asynchronous ones. The deadline and arrival-race policies judge
	// Rel; Lost reports a reply the network dropped in transit.
	Timed bool
	Seq   int
	Rel   float64
	Lost  bool
}

// EvalResult answers an Evaluate command.
type EvalResult struct {
	Loss float64
	Acc  float64
	// GradVar, B fill the dissimilarity columns when the Evaluate
	// command asked for them.
	GradVar float64
	B       float64
	// WireUplinkBytes/WireDownlinkBytes snapshot the transport's
	// measured traffic (fednet only; zero otherwise).
	WireUplinkBytes   int64
	WireDownlinkBytes int64
}

// workStats accumulates realized-local-work statistics across the
// updates aggregated between evaluated points (only maintained when
// Config.DeviceBudget is set). Fields are exported because the struct
// rides Snapshot, which a Checkpointer encodes by reflection.
type workStats struct {
	Done    int // epochs actually run
	Partial int // updates truncated below their dispatched target
	N       int
}

func (w *workStats) add(done, target int) {
	w.Done += done
	if done < target {
		w.Partial++
	}
	w.N++
}

// pendingDispatch is the coordinator's record of one outstanding
// Dispatch.
type pendingDispatch struct {
	device int
	seq    int // the Dispatch's Seq: dispatch sequence (async), selection index (sync)
	epochs int // the dispatched epoch target
	// expected is the work the device will actually perform:
	// min(epochs, EpochBudget) when a device-side budget rode the
	// dispatch, epochs otherwise. Charges (DispatchSent, WorkerLost
	// waste) and the realized-work clamp use it so a dispatch that never
	// returns is still billed what the device could have run, matching
	// the sync path's budget-clamped counterfactual.
	expected int
	version  int
	// view is the decoded broadcast view, the uplink decode base: a link's
	// shadow of it, or c.w itself on a sync run without links, is
	// borrowed; otherwise it is owned, a pooled vector release recycles
	// once the reply resolves.
	view      []float64
	owned     bool
	downBytes int64
	sentAt    float64 // clock at dispatch: the Arrival's Sent
	charged   bool    // DispatchSent confirmed the transfer
}

// evalPending is a recorded-point skeleton awaiting its EvalResult.
type evalPending struct {
	round        int
	mu           float64
	gamma        float64
	participants int
	after        func() ([]Command, error)
}

// Coordinator is the transport-agnostic FedProx server core. Construct
// with NewCoordinator, register every device with RegisterWorker, then
// call Start and execute the returned commands, feeding events back until
// Done. Coordinator is not safe for concurrent use: drivers serialize
// event delivery. The device half of the protocol — downlink decode,
// local solve, privacy, uplink encode — lives in core.Device; the
// coordinator only encodes broadcasts and decodes replies.
type Coordinator struct {
	cfg   Config
	async AsyncConfig
	opts  CoordinatorOptions
	mdl   model.Model

	paramBytes int64 // one uncoded model transfer at the run's width

	n           int
	sizes       []float64
	weights     []float64
	registered  []bool
	live        []bool
	liveDevices int

	selRoot   *frand.Source
	stragRoot *frand.Source
	batchRoot *frand.Source
	initRoot  *frand.Source

	w     []float64
	links *commLinks
	muc   *muController

	hist  *History
	cost  Cost
	work  workStats
	now   float64  // virtual clock mirror; NaN until the driver Ticks
	trace obs.Sink // Config.Trace; nil means tracing off
	tier  int      // obs.Event.Tier stamp: opts.Tier-1 (-1 = untiered)

	evalSeq int

	started  bool
	finished bool

	pending map[int]*pendingDispatch
	// version is the global model version: the round in synchronous runs.
	version int
	// windowBytes is what judge has charged to the byte-budget window, per
	// round (sync) or per milestone (async).
	windowBytes int64

	// synchronous state
	t       int
	round   *syncRound
	outcome *roundOutcome
	// windowed marks an Edge's inner coordinator: it opens a round only
	// when window is called, measures nothing (its parent owns evaluation)
	// and pauses between rounds; paused says it is waiting for a window.
	windowed, paused bool

	// asynchronous state
	isAsync       bool
	folded        int
	dispatchSeq   int
	maxDispatches int
	target        int
	flushSize     int
	roundSize     int
	buffer        []StaleDelta
	idle          *idleSet
	stats         foldStats

	// wait states
	evalWait *evalPending
}

// NewCoordinator builds a coordinator for one run of cfg on mdl.
func NewCoordinator(mdl model.Model, cfg Config, opts CoordinatorOptions) (*Coordinator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.NumDevices <= 0 {
		return nil, errors.New("core: coordinator needs a positive NumDevices")
	}
	if opts.Tier < 0 {
		return nil, fmt.Errorf("core: Tier must be non-negative, got %d", opts.Tier)
	}
	if err := checkSupport(cfg, opts); err != nil {
		return nil, err
	}
	cfg = cfg.WithDefaults()
	root := frand.New(cfg.Seed)
	c := &Coordinator{
		cfg:        cfg,
		opts:       opts,
		mdl:        mdl,
		paramBytes: rawBytes(mdl.NumParams(), cfg.Precision),
		n:          opts.NumDevices,
		sizes:      make([]float64, opts.NumDevices),
		registered: make([]bool, opts.NumDevices),
		live:       make([]bool, opts.NumDevices),
		selRoot:    root.Split("selection"),
		stragRoot:  root.Split("stragglers"),
		batchRoot:  root.Split("batches"),
		initRoot:   root.Split("init"),
		hist:       &History{Label: Label(cfg) + opts.LabelSuffix},
		now:        math.NaN(),
		trace:      cfg.Trace,
		tier:       opts.Tier - 1,
		pending:    make(map[int]*pendingDispatch),
		isAsync:    cfg.Async.Enabled(),
	}
	return c, nil
}

// emit sends one event to the run's trace sink, stamped with the
// coordinator's clock mirror (virtual seconds, or NaN when the run has
// no clock). The nil-sink fast path keeps the untraced hot path at one
// predictable branch.
func (c *Coordinator) emit(e obs.Event) {
	if c.trace == nil {
		return
	}
	e.Time = c.now
	e.Tier = c.tier
	c.trace.Emit(e)
}

// CommSpecs returns the resolved per-direction codec specs of this run —
// what a wire driver must install at the far endpoint. Under WireEncoded
// a disabled codec resolves to "raw".
func (c *Coordinator) CommSpecs() (down, up comm.Spec) {
	down, up = c.cfg.CommSpecs()
	if !up.Enabled() && c.opts.WireEncoded {
		raw := Config{Codec: comm.Spec{Name: "raw"}, Seed: c.cfg.Seed, Precision: c.cfg.Precision}
		down, up = raw.CommSpecs()
	}
	return down, up
}

// History returns the run's trajectory (final once Done was emitted).
func (c *Coordinator) History() *History { return c.hist }

// finish ends the run: History is final from here on.
func (c *Coordinator) finish() Done {
	c.finished = true
	c.hist.FinalParams = c.w
	c.emit(obs.Event{Kind: obs.KindRunDone})
	return Done{}
}

// Tick synchronizes the coordinator's virtual clock with the driver's.
// Virtual-time drivers call it after every clock movement; drivers
// without a clock never do, and every Point records VirtualSeconds NaN.
func (c *Coordinator) Tick(now float64) { c.now = now }

// timed reports whether a virtual-time driver is attached.
func (c *Coordinator) timed() bool { return !math.IsNaN(c.now) }

// EvalResyncState returns the shared evaluation link's current chain
// base (the last decoded eval broadcast), or nil when the eval codec is
// chain-free. A wire driver re-admitting a worker mid-run ships it so
// the rejoining endpoint decodes the next eval broadcast in lockstep.
func (c *Coordinator) EvalResyncState() []float64 {
	if c.links == nil {
		return nil
	}
	return c.links.evalPrev()
}

// RegisterWorker registers the devices one worker hosts. Before Start it
// accumulates the roster (every device in [0, NumDevices) must register
// exactly once). After Start — asynchronous runs only — it re-admits
// previously evicted devices: their codec link state is reset on both
// ends (the driver ships fresh state to the worker) and they rejoin the
// idle pool. A validation error after Start leaves the run untouched, so
// wire drivers can refuse the offending worker and continue.
func (c *Coordinator) RegisterWorker(devices []DeviceReg) ([]Command, error) {
	if !c.started {
		for _, d := range devices {
			if d.ID < 0 || d.ID >= c.n {
				return nil, fmt.Errorf("core: device ID %d outside [0,%d)", d.ID, c.n)
			}
			if c.registered[d.ID] {
				return nil, fmt.Errorf("core: device %d registered twice", d.ID)
			}
			if d.TrainSize <= 0 {
				return nil, fmt.Errorf("core: device %d has no training data", d.ID)
			}
			c.registered[d.ID] = true
			c.live[d.ID] = true
			c.liveDevices++
			c.sizes[d.ID] = float64(d.TrainSize)
		}
		return nil, nil
	}
	if !c.isAsync {
		return nil, errors.New("core: synchronous runs cannot re-admit workers")
	}
	// Validate everything before mutating: a rejected re-registration
	// must not leave half a worker admitted.
	seen := make(map[int]bool, len(devices))
	for _, d := range devices {
		if d.ID < 0 || d.ID >= c.n || !c.registered[d.ID] {
			return nil, fmt.Errorf("core: re-admission of unknown device %d", d.ID)
		}
		if c.live[d.ID] {
			return nil, fmt.Errorf("core: device %d is still live", d.ID)
		}
		if seen[d.ID] {
			// A double entry would inflate liveDevices past reality and
			// defeat the lost-every-worker detection forever.
			return nil, fmt.Errorf("core: device %d re-registered twice in one hello", d.ID)
		}
		seen[d.ID] = true
		if float64(d.TrainSize) != c.sizes[d.ID] {
			return nil, fmt.Errorf("core: device %d re-registered with %d training examples, had %g", d.ID, d.TrainSize, c.sizes[d.ID])
		}
	}
	for _, d := range devices {
		if c.links != nil {
			c.links.reset(d.ID)
		}
		c.live[d.ID] = true
		c.liveDevices++
		c.idle.add(d.ID)
		c.emit(obs.Event{Kind: obs.KindWorkerReadmit, Device: d.ID})
	}
	if c.evalWait != nil {
		return nil, nil
	}
	return c.fillAsync()
}

// Start begins the run: initializes the global model from the seed's
// init stream, loads any checkpoint, and returns the first commands
// (round 0's evaluation, or the resumed round's dispatches).
func (c *Coordinator) Start() ([]Command, error) {
	if c.started {
		return nil, errors.New("core: coordinator already started")
	}
	for id, ok := range c.registered {
		if !ok {
			return nil, fmt.Errorf("core: device %d never registered", id)
		}
	}
	c.started = true
	c.emit(obs.Event{Kind: obs.KindRunStart, Label: c.hist.Label, N: c.n})

	total := 0.0
	for _, s := range c.sizes {
		total += s
	}
	c.weights = make([]float64, c.n)
	for i, s := range c.sizes {
		c.weights[i] = s / total
	}

	c.w = c.mdl.InitParams(c.initRoot.Split("params"))

	if down, up := c.CommSpecs(); up.Enabled() {
		links, err := newCommLinks(down, up)
		if err != nil {
			return nil, err
		}
		c.links = links
	}
	if c.cfg.AdaptiveMu {
		c.muc = newMuController(c.cfg.Mu, c.cfg.MuStep, c.cfg.MuPatience)
	}

	if c.isAsync {
		return c.startAsync()
	}
	return c.startSync()
}

// deviceBudget draws the device-side compute budget for one dispatch:
// Config.DeviceBudget's allowance for (tag, device), clamped to
// [1, epochs] — a contacted device always completes at least one epoch
// (a device that cannot reply at all is the network/deadline policies'
// job, not the work axis's). Zero without a budget model, the Dispatch
// field's "unlimited" sentinel. tag is the round for synchronous
// dispatches and the dispatch sequence for asynchronous ones, so the
// draw is deterministic and identical across executors.
func (c *Coordinator) deviceBudget(tag, device, epochs int) int {
	if c.cfg.DeviceBudget == nil {
		return 0
	}
	return min(max(c.cfg.DeviceBudget.EpochBudget(tag, device, epochs), 1), epochs)
}

// expectedEpochs resolves the work a device will perform for a
// dispatch: the budget when one is set (deviceBudget already clamps it
// to [1, epochs]), the dispatched target otherwise. The wire-facing
// device runtime re-clamps with min() because its inputs are untrusted.
func expectedEpochs(budget, epochs int) int {
	if budget > 0 {
		return budget
	}
	return epochs
}

// release recycles the record's view if it owns it.
func (in *pendingDispatch) release() {
	if in.owned {
		tensor.PutVec(in.view)
	}
}

// downcast is one contacted device's encoded broadcast: what
// commLinks.broadcast returned for it.
type downcast struct {
	u     *comm.Update
	view  []float64
	owned bool
	db    int64
	err   error
}

// dispatch records one outstanding dispatch of device k, traces it, and
// returns its command. seq is the Dispatch's Seq (the selection index in
// a synchronous round, the dispatch sequence in asynchronous runs); tag
// keys the device's budget, batch-order and privacy streams (the round,
// or the dispatch sequence); round is the round or milestone it belongs
// to; b is the device's broadcast.
func (c *Coordinator) dispatch(seq, tag, round, k, epochs int, mu float64, b downcast) Dispatch {
	budget := c.deviceBudget(tag, k, epochs)
	c.pending[k] = &pendingDispatch{device: k, seq: seq, epochs: epochs, expected: expectedEpochs(budget, epochs),
		version: c.version, view: b.view, owned: b.owned, downBytes: b.db, sentAt: c.now}
	c.emit(obs.Event{
		Kind: obs.KindDispatch, Round: round, Seq: seq, Device: k, Version: c.version,
		Epochs: epochs, Budget: budget, BytesDown: b.db,
	})
	return Dispatch{
		Seq:          seq,
		Round:        round,
		Version:      c.version,
		Device:       k,
		Epochs:       epochs,
		EpochBudget:  budget,
		Mu:           mu,
		LearningRate: c.cfg.LearningRate,
		BatchSize:    c.cfg.BatchSize,
		BatchSeed:    c.batchRoot.SplitIndex(tag).SplitIndex(k).State(),
		PrivacyTag:   tag,
		Update:       b.u,
		View:         b.view,
		DownBytes:    b.db,
	}
}

// DispatchSent confirms that a Dispatch actually left the coordinator:
// only then are its downlink bytes and expected (budget-clamped) epochs
// charged, so a dispatch whose send failed (dead worker) is billed as
// neither traffic nor compute; realize moves the epoch charge to what the
// device reports it ran. Every backend calls it right after shipping the
// request — in-process ones, where shipping cannot fail, before serving
// it.
func (c *Coordinator) DispatchSent(device int) {
	in, ok := c.pending[device]
	if !ok || in.charged {
		return
	}
	in.charged = true
	c.cost.DownlinkBytes += in.downBytes
	c.cost.DeviceEpochs += in.expected
}

// realize resolves the epochs a reply's device actually ran and moves a
// confirmed dispatch's epoch charge to them. Without a budget model the
// dispatched work is authoritative (a reply need not report
// EpochsDone); with one, the device's report is, clamped to [0, expected].
func (c *Coordinator) realize(in *pendingDispatch, reported int) int {
	done := in.expected
	if c.cfg.DeviceBudget != nil {
		done = min(max(reported, 0), in.expected)
	}
	if in.charged {
		c.cost.DeviceEpochs += done - in.expected
	}
	return done
}

// judge gives one reply its verdict under the clock-native straggler
// policies, in precedence order: lost in transit, past the deadline (rel
// is the reply's own latency; NaN never is), drained (an asynchronous
// schedule already has its folds), over the byte budget. The budget
// window is consumed in arrival order by what Cost charges: a reply's
// round trip (down + up), or only the downlink of a lost one, whose
// uplink never reached the server.
func (c *Coordinator) judge(rel float64, lost, drained bool, down, up int64) (reason DropReason) {
	switch {
	case lost:
		reason = DropLost
		up = 0
	case c.cfg.VTime.DeadlineSeconds > 0 && rel > c.cfg.VTime.DeadlineSeconds:
		reason = DropDeadline
	case drained:
		reason = DropDrain
	case c.cfg.VTime.RoundBytes > 0 && c.windowBytes+down+up > c.cfg.VTime.RoundBytes:
		reason = DropBudget
	}
	c.windowBytes += down + up
	return reason
}

// staleness is a judged reply's model-version staleness: -1 unless it is
// folded (always 0 within a synchronous round).
func (c *Coordinator) staleness(in *pendingDispatch, reason DropReason) int {
	if reason != ArrivalFolded {
		return -1
	}
	return c.version - in.version
}

// settle charges one judged reply and traces it: a reply that is not
// folded wastes the work it realized, every reply but a lost one moved
// its uplink, and a folded one enters the realized-work statistics. The
// downlink and the work were charged when the dispatch was sent.
func (c *Coordinator) settle(in *pendingDispatch, reason DropReason, done int, up int64, rel float64) {
	if reason != ArrivalFolded {
		c.cost.WastedEpochs += done
	} else if c.cfg.DeviceBudget != nil {
		c.work.add(done, in.epochs)
	}
	if reason != DropLost {
		c.cost.UplinkBytes += up
	}
	if c.trace != nil {
		c.emit(obs.Event{
			Kind: obs.KindReply, Seq: in.seq, Device: in.device, Version: in.version,
			Staleness: c.staleness(in, reason), EpochsDone: done, BytesUp: up, BytesDown: in.downBytes,
			Seconds: rel, Disposition: reason.String(),
		})
	}
}

// recordArrival appends one transmitted reply to the Arrivals trace:
// arrived is the clock it reached the server at. The first contact sizes
// the trace to planned, the number of contacts the configuration fixes
// for a run that loses no reply, so such a run never regrows it;
// re-dispatched losses overflow through append.
func (c *Coordinator) recordArrival(planned int, in *pendingDispatch, arrived float64, reason DropReason) {
	if c.hist.Arrivals == nil {
		c.hist.Arrivals = make([]Arrival, 0, planned)
	}
	c.hist.Arrivals = append(c.hist.Arrivals, Arrival{Device: int32(in.device), Drop: reason, Sent: in.sentAt, Arrived: arrived})
}

// decodeReply takes the device's solution from a Reply, for the caller to
// recycle after its fold: an encoded uplink decodes against the broadcast
// view the device trained from, raw Params pass through length-checked.
func (c *Coordinator) decodeReply(in *pendingDispatch, r Reply) (wk []float64, upWire int64, err error) {
	if r.Update != nil {
		if c.links == nil {
			return nil, 0, errors.New("core: encoded reply on a run without codec links")
		}
		upWire = r.Update.WireBytes() // before the Release: it reads the payload's length
		wk, err = c.links.uplinkDecode(in.device, r.Update, in.view)
		if err != nil {
			return nil, 0, err
		}
		r.Update.Release() // the decoding endpoint is the owner (comm.Update.Release)
		return wk, upWire, nil
	}
	if len(r.Params) != len(c.w) {
		return nil, 0, fmt.Errorf("core: reply from device %d has %d params, model has %d", in.device, len(r.Params), len(c.w))
	}
	return r.Params, c.paramBytes, nil
}

// HandleReply delivers one device's training result. A reply that
// arrives between an Evaluate command and its EvalDone is an error: the
// backend holds it until the evaluation is answered.
func (c *Coordinator) HandleReply(r Reply) ([]Command, error) {
	if !c.started {
		return nil, errors.New("core: reply before Start")
	}
	if c.evalWait != nil {
		return nil, fmt.Errorf("core: reply from device %d while an evaluation is pending", r.Device)
	}
	in, ok := c.pending[r.Device]
	if !ok {
		if c.isAsync {
			return nil, nil // an evicted worker's late reply: drop
		}
		return nil, fmt.Errorf("core: reply from device %d with no outstanding dispatch", r.Device)
	}
	delete(c.pending, r.Device)
	wk, up, err := c.decodeReply(in, r)
	if err != nil {
		return nil, err
	}
	done := c.realize(in, r.EpochsDone)
	// The deadline judges the reply's own network+compute latency, which
	// the driver stamps in Rel. The clock delta c.now-in.sentAt is NOT
	// equivalent: an evaluation charge can Advance the engine past a
	// scheduled arrival, which then fires "at the present" — inflating
	// the observed delta and dropping a reply that was in time.
	rel := math.NaN()
	if r.Timed {
		rel = r.Rel
	}
	if c.isAsync {
		return c.handleAsyncReply(in, wk, up, done, rel, r.Lost)
	}
	// The broadcast view was this reply's decode base and nothing else:
	// the fold reads wk only.
	in.release()
	c.round.replies[in.seq] = &syncReply{in: in, wk: wk, done: done, gamma: r.Gamma,
		upBytes: up, seq: r.Seq, rel: rel, lost: r.Lost}
	c.round.outstanding--
	if c.round.outstanding > 0 {
		return nil, nil
	}
	return c.completeRound()
}

// beginEval opens one evaluation: the global model is encoded once on
// the shared eval link (broadcast semantics) and the Evaluate command
// carries both the encoded update for wire drivers and the decoded view
// in-process drivers measure at.
func (c *Coordinator) beginEval(round int, mu, gamma float64, participants int, after func() ([]Command, error)) ([]Command, error) {
	c.evalSeq++
	params := c.w
	var u *comm.Update
	wire := rawBytes(len(c.w), tensor.F64) // evaluation is at full width (comm.NewEvalLink)
	if c.links != nil {
		var err error
		u, params, err = c.links.evalBroadcast(c.w)
		if err != nil {
			return nil, err
		}
		wire = u.WireBytes()
	}
	c.cost.EvalBytes += wire
	c.evalWait = &evalPending{round: round, mu: mu, gamma: gamma, participants: participants, after: after}
	return []Command{Evaluate{
		Round:              round,
		Seq:                c.evalSeq,
		Update:             u,
		Params:             params,
		WireBytes:          wire,
		TrackDissimilarity: c.cfg.TrackDissimilarity,
	}}, nil
}

// EvalDone answers an Evaluate command: the point is recorded with the
// coordinator's cumulative cost and staleness statistics, then the run
// continues.
func (c *Coordinator) EvalDone(e EvalResult) ([]Command, error) {
	ew := c.evalWait
	if ew == nil {
		return nil, errors.New("core: unexpected EvalDone")
	}
	c.evalWait = nil

	p := Point{
		Round:           ew.round,
		TrainLoss:       e.Loss,
		TestAcc:         e.Acc,
		GradVar:         math.NaN(),
		B:               math.NaN(),
		Mu:              ew.mu,
		MeanGamma:       ew.gamma,
		Participants:    ew.participants,
		MeanStaleness:   math.NaN(),
		MaxStaleness:    math.NaN(),
		VirtualSeconds:  c.now,
		MeanEpochsDone:  math.NaN(),
		PartialFraction: math.NaN(),
		Cost:            c.cost,
	}
	if c.cfg.DeviceBudget != nil && c.work.N > 0 {
		p.MeanEpochsDone = float64(c.work.Done) / float64(c.work.N)
		p.PartialFraction = float64(c.work.Partial) / float64(c.work.N)
	}
	c.work = workStats{}
	if c.cfg.TrackDissimilarity {
		p.GradVar, p.B = e.GradVar, e.B
	}
	p.Cost.WireUplinkBytes = e.WireUplinkBytes
	p.Cost.WireDownlinkBytes = e.WireDownlinkBytes
	if c.isAsync {
		if c.stats.n > 0 {
			p.MeanStaleness = c.stats.sum / float64(c.stats.n)
			p.MaxStaleness = c.stats.max
		}
		c.stats = foldStats{}
	}
	c.hist.Points = append(c.hist.Points, p)
	c.emit(obs.Event{Kind: obs.KindEval, Round: ew.round, Loss: e.Loss, Acc: e.Acc})

	return ew.after()
}

// CombineEvals is the one rule that turns per-device evaluation rows (a
// wire executor's, a tier edge's children's) into metrics under this
// coordinator's p_k: rows in ascending device order, Σ p_k·loss_k, the
// counts summed and the accuracy they give. Only missing rows (evicted
// devices) rescale the loss by the mass that reported: a full roster's
// weights sum to 1 only to within an ulp, and dividing would move its bits.
func (c *Coordinator) CombineEvals(rows []DeviceEval) (sum DeviceEval, acc float64) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].Device < rows[j].Device })
	mass := 0.0
	for _, r := range rows {
		sum.TrainLoss += c.weights[r.Device] * r.TrainLoss
		mass += c.weights[r.Device]
		sum.TrainN += r.TrainN
		sum.Correct += r.Correct
		sum.TestN += r.TestN
	}
	if len(rows) < len(c.weights) && mass > 0 {
		sum.TrainLoss /= mass
	}
	if sum.TestN > 0 {
		acc = float64(sum.Correct) / float64(sum.TestN)
	}
	return sum, acc
}

// foldWeight resolves one update's aggregation weight under
// Config.FoldWeight: the device's n_k, or its realized local epochs.
func (c *Coordinator) foldWeight(nk float64, done int) float64 {
	if c.cfg.FoldWeight == WeightByEpochs {
		return float64(done)
	}
	return nk
}
