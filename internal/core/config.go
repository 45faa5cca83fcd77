// Package core implements the paper's contribution: the FedProx federated
// optimization framework (Algorithm 2) and FedAvg (Algorithm 1) as its
// μ = 0 / drop-stragglers special case.
//
// A run simulates T communication rounds. Each round the server selects K
// of N devices, ships the global model wᵗ, lets each selected device run
// its local solver on the subproblem h_k(w; wᵗ) = F_k(w) + (μ/2)‖w − wᵗ‖²
// for as many epochs as its (simulated) systems resources allow, and
// aggregates the returned models. Systems heterogeneity is simulated
// exactly as in Section 5.2: a fixed fraction of the selected devices are
// designated stragglers and draw a uniformly random epoch budget in
// [1, E]; FedAvg drops them, FedProx aggregates their partial solutions.
//
// The environment (device selection, straggler designation, epoch draws,
// and mini-batch order) is derived only from Config.Seed, the round index,
// and the device index — never from the algorithm under test — so two
// runs that differ only in method hyperparameters see byte-identical
// randomness, the comparison protocol of Section 5.1.
package core

import (
	"fmt"
	"math"
	"runtime"

	"fedprox/internal/comm"
	"fedprox/internal/obs"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// SamplingScheme selects how devices are sampled and how their returned
// models are aggregated. The two schemes are compared in Appendix C.3.4
// (Figure 12).
type SamplingScheme int

const (
	// UniformWeightedAvg samples K devices uniformly without replacement
	// and averages returned models with weights proportional to local
	// sample counts n_k. This is the scheme of McMahan et al. that the
	// paper's main experiments use.
	UniformWeightedAvg SamplingScheme = iota
	// WeightedSimpleAvg draws K distinct devices one at a time, each with
	// probability proportional to p_k = n_k/n among the devices not yet
	// drawn (frand.WeightedChoice), and takes the unweighted average.
	// Algorithms 1 and 2 draw K devices independently by p_k, with
	// replacement, so their simple mean's expectation is Σ p_k w_k; a draw
	// without replacement's is not (ROADMAP items 3 and 37).
	WeightedSimpleAvg
)

// String implements fmt.Stringer.
func (s SamplingScheme) String() string {
	switch s {
	case UniformWeightedAvg:
		return "uniform-sampling+weighted-average"
	case WeightedSimpleAvg:
		return "weighted-sampling+simple-average"
	default:
		return fmt.Sprintf("SamplingScheme(%d)", int(s))
	}
}

// FoldWeightScheme selects the per-update aggregation weight within the
// sampling scheme's fold (the w_k in Σ w_k·Δ_k / Σ w_k under uniform
// sampling; WeightedSimpleAvg ignores it by construction).
type FoldWeightScheme int

const (
	// WeightBySize weighs each update by the device's local sample count
	// n_k — the paper's prescription, which folds partial solutions at
	// full weight and lets the proximal term absorb their inexactness.
	WeightBySize FoldWeightScheme = iota
	// WeightByEpochs weighs each update by the local epochs the device
	// actually ran (Reply.EpochsDone), the ablation of the ROADMAP's
	// epoch-budget-aware-weights item: if partial solutions should count
	// less, the weights — not the prox term — would do the work.
	WeightByEpochs
)

// String implements fmt.Stringer.
func (f FoldWeightScheme) String() string {
	switch f {
	case WeightBySize:
		return "weight-by-size"
	case WeightByEpochs:
		return "weight-by-epochs"
	default:
		return fmt.Sprintf("FoldWeightScheme(%d)", int(f))
	}
}

// StragglerPolicy selects what the server does with devices that could not
// complete all E local epochs within the round.
type StragglerPolicy int

const (
	// DropStragglers discards straggler updates entirely (FedAvg's
	// behaviour, per Bonawitz et al.).
	DropStragglers StragglerPolicy = iota
	// AggregatePartial incorporates whatever partial solution each
	// straggler produced (FedProx's behaviour: tolerating partial work).
	AggregatePartial
)

// String implements fmt.Stringer.
func (p StragglerPolicy) String() string {
	switch p {
	case DropStragglers:
		return "drop-stragglers"
	case AggregatePartial:
		return "aggregate-partial"
	default:
		return fmt.Sprintf("StragglerPolicy(%d)", int(p))
	}
}

// Config fully describes one federated optimization run.
type Config struct {
	// Rounds is the number of communication rounds T.
	Rounds int
	// ClientsPerRound is K, the number of devices selected per round
	// (paper: 10 everywhere).
	ClientsPerRound int
	// LocalEpochs is E, the epoch budget of a non-straggler (paper: 20,
	// or 1 for the Appendix C.3.2 low-capability setting).
	LocalEpochs int
	// LearningRate is the local SGD step size η.
	LearningRate float64
	// BatchSize is the local mini-batch size (paper: 10).
	BatchSize int
	// Mu is the proximal coefficient μ. 0 with DropStragglers recovers
	// FedAvg exactly.
	Mu float64
	// AdaptiveMu enables the Section 5.3.2 heuristic: μ starts at Mu, is
	// increased by MuStep when the global loss increases, and decreased by
	// MuStep after MuPatience consecutive decreases.
	AdaptiveMu bool
	// MuStep is the adaptive-μ adjustment (paper: 0.1). Zero selects 0.1.
	MuStep float64
	// MuPatience is the consecutive-decrease count before μ is lowered
	// (paper: 5). Zero selects 5.
	MuPatience int
	// Sampling selects the sampling/aggregation scheme.
	Sampling SamplingScheme
	// FoldWeight selects the per-update weight inside the fold: n_k (the
	// paper default) or the realized local epochs — the epoch-budget-
	// aware-weights ablation. Applies to the synchronous aggregate and
	// the asynchronous staleness-damped fold alike; WeightedSimpleAvg
	// ignores it (its fold is unweighted by construction).
	FoldWeight FoldWeightScheme
	// Straggler selects the straggler policy (drop vs aggregate).
	Straggler StragglerPolicy
	// StragglerFraction is the fraction of selected devices designated as
	// stragglers each round (paper: 0, 0.5, 0.9).
	StragglerFraction float64
	// EvalEvery is the round interval between full-network evaluations;
	// round 0 and the final round are always evaluated. Zero selects 1.
	EvalEvery int
	// TrackDissimilarity additionally records the gradient-variance
	// dissimilarity at every evaluation (the bottom rows of Figures 2, 6,
	// 8, 12). It costs one full-network gradient pass per evaluation.
	TrackDissimilarity bool
	// TrackGamma records the mean achieved γ-inexactness across the
	// selected devices each round (one full local gradient pass per
	// selected device per round).
	TrackGamma bool
	// Seed drives every random draw of the simulated environment.
	Seed uint64
	// Parallelism bounds the concurrent per-device work of a synchronous
	// round — the in-process local solves and, under a codec, the
	// coordinator's downlink encodes (on every executor, fednet included),
	// with the calling goroutine counted as one of the workers — and the
	// size of the asynchronous virtual-time run's solve pool; 0 selects
	// GOMAXPROCS. It does not bound evaluation, which fans out on
	// GOMAXPROCS. History, Cost and the trace are identical at any value:
	// each device's work reads and advances only that device's seeded
	// streams, and results are consumed in selection order.
	Parallelism int
	// Solver is the local solver devices run on their subproblems; nil
	// selects mini-batch SGD (the paper's choice). The framework is
	// solver-agnostic (Section 3.2), so any solver.LocalSolver works.
	Solver solver.LocalSolver
	// Privacy, when non-nil, clips and noises every device update before
	// aggregation (the DP composition point of footnote 1).
	Privacy *privacy.Mechanism
	// Checkpointer, when non-nil, enables crash-safe persistence: the run
	// resumes from the checkpointer's saved Snapshot if one exists and
	// saves one after every round.
	Checkpointer Checkpointer
	// Codec, when enabled (non-empty Name), compresses every model
	// transfer: each contacted device trains from the decoded broadcast
	// and the server aggregates decoded uplink updates. The zero value
	// moves models uncoded. Either way Cost prices each transfer by one
	// rule (see Cost), so the raw codec changes no number.
	// Codec.Seed zero derives the rounding streams from Seed.
	Codec comm.Spec
	// DownlinkCodec, when enabled, overrides Codec for the broadcast
	// direction only, giving the two link directions different codecs —
	// the deployment shape where the device uplink is the scarce
	// resource (e.g. topk uplink over a raw or quantized downlink; topk
	// on the chained broadcast starves devices of most coordinate
	// updates and slows convergence badly). Requires Codec to be
	// enabled.
	DownlinkCodec comm.Spec
	// Capability, when non-nil, replaces the designated-straggler
	// simulation with the capability-driven model of internal/syshet: each
	// device's epoch budget is derived from its simulated hardware and the
	// round's global clock cycle, and a device is a straggler exactly when
	// its budget falls short of LocalEpochs. StragglerFraction is ignored
	// when set. Budgets are clamped to [0, LocalEpochs] server-side, before
	// dispatch: a device with 0 is a straggler DropStragglers never contacts.
	Capability CapabilityModel
	// DeviceBudget, when non-nil, models device-side variable local work
	// — the paper's partial-solution axis. Each Dispatch carries the
	// budget's epoch allowance for its (round-or-sequence, device) pair,
	// clamped to [1, Epochs]; the device runtime truncates its solve to
	// it and reports the realized work in Reply.EpochsDone, which the
	// coordinator charges instead of the dispatched target and records
	// in the Point.MeanEpochsDone / PartialFraction columns.
	//
	// Unlike Capability — which re-plans the round's epoch targets
	// server-side and lets DropStragglers discard the short devices —
	// the budget is enforced by the device: the server only learns the
	// realized work after the fact, so partial solutions must be
	// aggregated (or wasted), never pre-dropped. On the wire it rides
	// TrainRequest.EpochBudget. syshet.Fleet implements the interface.
	// The support table differs too: Capability is refused on the
	// asynchronous executors and RunTiered, DeviceBudget on RunTiered
	// alone. One merged field would need an option saying which side
	// enforces it.
	DeviceBudget CapabilityModel
	// Async selects the coordinator's aggregation discipline. The zero
	// value is the paper's synchronous round protocol. AsyncTotal and
	// Buffered are executed by the fednet runtime against the real
	// clock, or by the simulator against the virtual clock of
	// VTime.Model. In the async modes Rounds counts model-version
	// milestones (ClientsPerRound folds each for AsyncTotal, one
	// BufferK-reply flush each for Buffered), so the total device work
	// matches a sync run of the same Rounds.
	Async AsyncConfig
	// Trace, when non-nil, receives one obs.Event at every coordinator
	// decision point: run start/done, round open/close, each dispatch,
	// each reply with its disposition (folded or a drop reason),
	// staleness, realized epochs and wire bytes, folds, evaluations,
	// checkpoints, and worker eviction/re-admission. Events are stamped
	// with the run's virtual clock (NaN when the run has no clock — wire
	// drivers wrap the sink in obs.WallClock to stamp wall seconds
	// instead). Every executor serializes coordinator events, and their
	// payloads derive only from Seed, so a deterministic sink such as
	// obs.JSONL produces byte-identical traces for same-seed sim/vtime
	// runs. Tracing never alters the run itself: History and the model
	// trajectory are bit-identical with and without a sink.
	//
	// Trace covers the coordinator half only; the device runtime's
	// events are a DeviceOptions.Trace concern (fednet workers), because
	// the simulator solves dispatches in parallel and device-side
	// emission order there would not be deterministic.
	Trace obs.Sink
	// Precision selects the arithmetic width of the device-side hot path.
	// The zero value (tensor.F64) is the framework's float64 contract.
	// Under tensor.F32 the local solve (prox term and γ probe included)
	// and the wire codecs run the same width-generic bodies at float32:
	// the device hands the setting to the solver as
	// solver.Config.Precision and CommSpecs stamps it into both
	// comm.Specs, so wire scales and dense payloads ship at 4 bytes per
	// word. Every interface in between stays float64 — solver and codec
	// narrow on the way in and widen, exactly, on the way out — and
	// evaluation always happens at full width (the eval link strips
	// precision on both endpoints), so an f32 run's loss is measured in
	// the same arithmetic as its f64 baseline. What f32 buys is the wire:
	// both widths run the same batched kernels.
	//
	// F32 requires a model with a float32 gradient (model.Model32: linear
	// and mlp, not lstm), a local solver that honours
	// solver.Config.Precision (SGD, the nil default, or GD), no Privacy
	// mechanism (the DP hook runs at full width), and no topk codec — the
	// run is rejected up front rather than silently falling back, because
	// the wire format is part of the negotiated protocol.
	Precision tensor.Precision
	// VTime, when enabled (non-nil Model), runs the simulation on the
	// internal/vtime virtual clock: synchronous rounds are charged their
	// critical-path duration (slowest contacted device's round-trip plus
	// the evaluation broadcast), asynchronous modes execute as a
	// deterministic discrete-event simulation with replies arriving in
	// latency order, and every evaluated Point records the virtual
	// wall-clock (Point.VirtualSeconds) with the reply trace in
	// History.Arrivals.
	VTime VTimeConfig
}

// VTimeConfig attaches a virtual-time latency model and its
// codec-aware straggler policies to a run.
type VTimeConfig struct {
	// Model yields per-device compute and transfer durations (see
	// internal/vtime; vtime.Model composes a compute model such as
	// syshet.Fleet with a jittered network). Non-nil enables virtual
	// time.
	Model vtime.LatencyModel
	// DeadlineSeconds, when positive, drops any reply arriving later
	// than this after its round's broadcast began (sync) or its own
	// dispatch (async). The dropped device's epochs are wasted; its
	// transfer bytes stay charged (the data moved, the server ignored
	// it). A deadline-based drop is the clock-native form of the
	// paper's straggler policy: the tail is cut by time, not by a
	// designated epoch budget.
	DeadlineSeconds float64
	// RoundBytes, when positive, is a wire-byte budget per synchronous
	// round or per asynchronous milestone window: replies are accepted
	// in arrival order until the window's cumulative training transfer
	// bytes (downlink + uplink) exceed the budget, and the remaining
	// tail is dropped as waste. With codecs configured this is the
	// ROADMAP's codec-aware straggler policy — the tail is cut by
	// deadline bytes, not epochs.
	RoundBytes int64
}

// Enabled reports whether a virtual-time model is attached.
func (v VTimeConfig) Enabled() bool { return v.Model != nil }

// Validate reports the first configuration error, or nil. The zero
// (disabled) config is valid.
func (v VTimeConfig) Validate() error {
	if !v.Enabled() {
		if v.DeadlineSeconds != 0 || v.RoundBytes != 0 {
			return fmt.Errorf("core: VTime deadline/byte policies require VTime.Model")
		}
		return nil
	}
	if !finite(v.DeadlineSeconds) || v.DeadlineSeconds < 0 {
		return fmt.Errorf("core: VTime.DeadlineSeconds must be non-negative and finite, got %g", v.DeadlineSeconds)
	}
	if v.RoundBytes < 0 {
		return fmt.Errorf("core: VTime.RoundBytes must be non-negative, got %d", v.RoundBytes)
	}
	return nil
}

// Checkpointer persists and restores a run's resumable state. The
// coordinator hands Save a Snapshot as a typed value and does no encoding
// of its own: whoever persists the snapshot encodes it, once. The
// coordinator checks what Load returns itself, so another run's snapshot
// is refused whatever the storage. Implementations live outside this
// package so the core stays free of I/O.
type Checkpointer interface {
	// Load returns the saved snapshot, or nil when nothing is saved yet
	// and the run starts fresh.
	Load() (*Snapshot, error)
	// Save persists the state reached after round s.NextRound-1. The
	// snapshot aliases nothing live: it is the Checkpointer's to keep.
	Save(s *Snapshot) error
}

// Snapshot is everything a synchronous run carries from one round to the
// next — the environment draws are pure functions of (seed, round,
// device), so this is all of it.
type Snapshot struct {
	// Label and Seed name the run that saved the snapshot (its History
	// label and Config.Seed); a run under another label or seed refuses it.
	Label string
	Seed  uint64
	// NextRound is the first round that has not yet executed.
	NextRound int
	// Params is the global model wᵗ at NextRound.
	Params []float64
	// Points is the evaluated trajectory so far.
	Points []Point
	// Cost is the cumulative resource accounting, so a resumed run's
	// Points continue the same counters instead of restarting at zero.
	Cost Cost
	// Work is the realized-work accumulator since the last evaluated point
	// (Config.DeviceBudget runs): a save between two evaluations must not
	// lose the rounds before it from the next Point's
	// MeanEpochsDone/PartialFraction.
	Work workStats
	// AdaptiveMu is the adaptive-μ controller's state (nil unless
	// Config.AdaptiveMu), so a resumed run continues the controller's
	// streak instead of restarting at Config.Mu; an adaptive run refuses
	// a snapshot without it.
	AdaptiveMu *muState
	// Links is the coordinator endpoint's codec link state and
	// DeviceLinks the device endpoint's (both nil without a codec). The
	// coordinator fills and reads Links only; the in-process pair
	// (newSimPair) adds the device runtime's half, which owns the uplink
	// rounding streams and error-feedback residuals. A codec run refuses a
	// snapshot missing either: restarting a stream mid-chain would corrupt
	// it silently.
	Links, DeviceLinks *LinkSnapshot
}

// LinkSnapshot is one endpoint's codec link state: per device, both
// codecs' rounding-stream positions and error-feedback residuals and the
// broadcast shadow; and the shared evaluation chain.
type LinkSnapshot struct {
	State comm.LinkSnapshot
	Eval  comm.EvalLinkSnapshot
}

// CapabilityModel yields per-(round, device) epoch budgets for the
// capability-driven systems-heterogeneity simulation. Implementations
// must be deterministic in (round, device).
type CapabilityModel interface {
	// EpochBudget returns how many of the requested epochs the device
	// completes before the round's global clock cycle expires, in [0,
	// requested].
	EpochBudget(round, device, requested int) int
}

// Validate reports the first configuration error, or nil. Which executor
// runs which option is the support table's (support.go).
func (c Config) Validate() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("core: Rounds must be positive, got %d", c.Rounds)
	case c.ClientsPerRound <= 0:
		return fmt.Errorf("core: ClientsPerRound must be positive, got %d", c.ClientsPerRound)
	case c.LocalEpochs <= 0:
		return fmt.Errorf("core: LocalEpochs must be positive, got %d", c.LocalEpochs)
	case !finite(c.LearningRate) || c.LearningRate <= 0:
		return fmt.Errorf("core: LearningRate must be positive and finite, got %g", c.LearningRate)
	case c.BatchSize <= 0:
		return fmt.Errorf("core: BatchSize must be positive, got %d", c.BatchSize)
	case !finite(c.Mu) || c.Mu < 0:
		return fmt.Errorf("core: Mu must be non-negative and finite, got %g", c.Mu)
	case !(c.StragglerFraction >= 0 && c.StragglerFraction <= 1):
		return fmt.Errorf("core: StragglerFraction must be in [0,1], got %g", c.StragglerFraction)
	case c.Sampling != UniformWeightedAvg && c.Sampling != WeightedSimpleAvg:
		return fmt.Errorf("core: unknown Sampling scheme %d", int(c.Sampling))
	case c.Straggler != DropStragglers && c.Straggler != AggregatePartial:
		return fmt.Errorf("core: unknown Straggler policy %d", int(c.Straggler))
	case c.FoldWeight != WeightBySize && c.FoldWeight != WeightByEpochs:
		return fmt.Errorf("core: unknown FoldWeight scheme %d", int(c.FoldWeight))
	}
	if err := c.Async.Validate(); err != nil {
		return err
	}
	if err := c.VTime.Validate(); err != nil {
		return err
	}
	if c.Privacy != nil {
		if err := c.Privacy.Validate(); err != nil {
			return err
		}
	}
	if err := c.Precision.Validate(); err != nil {
		return err
	}
	if c.Codec.Enabled() {
		// Specs are validated at the run's precision (CommSpecs stamps it
		// into both directions), so an f32 run with a topk codec is
		// rejected here rather than at link setup.
		cc := c.Codec
		cc.Precision = c.Precision
		if err := cc.Validate(); err != nil {
			return err
		}
		dc := c.DownlinkCodec
		if dc.Enabled() {
			dc.Precision = c.Precision
		}
		if err := dc.Validate(); err != nil {
			return err
		}
	} else if c.DownlinkCodec.Enabled() {
		return fmt.Errorf("core: DownlinkCodec requires Codec to be enabled")
	}
	return nil
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// CommSpecs returns the per-direction codec specs with defaults applied
// and rounding seeds derived from the run seed when unset — the resolved
// form the simulator and the fednet runtime share so their codec streams
// match. Both are zero when no codec is configured.
func (c Config) CommSpecs() (down, up comm.Spec) {
	if !c.Codec.Enabled() {
		return comm.Spec{}, comm.Spec{}
	}
	up = c.Codec
	if up.Seed == 0 {
		up.Seed = c.Seed
	}
	up.Precision = c.Precision
	down = up
	if c.DownlinkCodec.Enabled() {
		down = c.DownlinkCodec
		if down.Seed == 0 {
			down.Seed = c.Seed
		}
		down.Precision = c.Precision
	}
	return down.WithDefaults(), up.WithDefaults()
}

// WithDefaults returns c with every zero-valued optional knob replaced
// by its default. This is the one place the zero-selects-default rules
// live: EvalEvery 0 → evaluate every round, MuStep/MuPatience 0 → the
// adaptive-μ controller's paper settings, Parallelism 0 → GOMAXPROCS.
// Every constructor path (NewCoordinator, the drivers) normalizes
// through here, so callers may hand-build a Config with zeros and get
// the documented behavior; Validate accepts everything WithDefaults
// produces from a valid base (asserted by a table-driven test).
func (c Config) WithDefaults() Config {
	if c.EvalEvery <= 0 {
		c.EvalEvery = 1
	}
	if c.MuStep == 0 {
		c.MuStep = 0.1
	}
	if c.MuPatience == 0 {
		c.MuPatience = 5
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c
}

// FedAvg returns a configuration implementing Algorithm 1: μ = 0, SGD
// local solver, stragglers dropped.
func FedAvg(rounds, clients, epochs int, lr float64) Config {
	return Config{
		Rounds:          rounds,
		ClientsPerRound: clients,
		LocalEpochs:     epochs,
		LearningRate:    lr,
		BatchSize:       10,
		Mu:              0,
		Straggler:       DropStragglers,
		Sampling:        UniformWeightedAvg,
		Seed:            7,
	}
}

// FedProx returns a configuration implementing Algorithm 2 with the given
// proximal coefficient: partial work aggregated, SGD local solver.
func FedProx(rounds, clients, epochs int, lr, mu float64) Config {
	c := FedAvg(rounds, clients, epochs, lr)
	c.Mu = mu
	c.Straggler = AggregatePartial
	return c
}
