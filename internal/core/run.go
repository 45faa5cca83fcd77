package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"fedprox/internal/data"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
	"fedprox/internal/vtime"
)

// Fleet is the lazy population view the in-process drivers run over:
// population size plus materialize-shard-on-demand. It is an alias for
// data.Fleet (the metrics package shares it without an import cycle);
// any fully materialized *data.Federated adapts via its Fleet method,
// and generators like synthetic.NewFleet implement it natively so a
// 10^5–10^6-device run never holds the population's examples at once.
type Fleet = data.Fleet

// Run executes one federated optimization run of cfg on (m, fed) and
// returns the evaluated trajectory. It is RunFleet over the eager Fleet
// view of fed; results are bit-identical to pre-Fleet versions of this
// API.
func Run(m model.Model, fed *data.Federated, cfg Config) (*History, error) {
	return RunFleet(m, fed.Fleet(), cfg)
}

// RunFleet executes one federated optimization run of cfg over a lazy
// fleet and returns the evaluated trajectory.
//
// RunFleet is the in-process driver of the shared core.Coordinator and
// core.Device: the coordinator makes every server-side decision
// (selection, straggler policies, aggregation, accounting) and one
// Device hosting every fleet device serves the device side (decode,
// solve, privacy, encode). The fleetBackend under core.Drive only moves
// events between the two — parallel HandleDispatch calls for Dispatch,
// metric passes for Evaluate/ObserveLoss, and virtual-clock charges for
// AdvanceClock when a latency model is attached. Per-round memory is
// O(cohort): shards are materialized per dispatch and evaluation streams
// over the fleet.
func RunFleet(m model.Model, fl Fleet, cfg Config) (*History, error) {
	if cfg.Async.Enabled() {
		return runAsyncVTime(m, fl, cfg)
	}

	coord, dev, err := newSimPair(m, fl, cfg, CoordinatorOptions{})
	if err != nil {
		return nil, err
	}
	b := &fleetBackend{simBackend: simBackend{inProcess: inProcess{
		coord: coord,
		eval:  func(v Evaluate) EvalResult { return simEval(m, fl, v) },
	}}, m: m, fl: fl}
	// With a virtual-time model the synchronous protocol gains duration
	// semantics: every round charges its critical path to the clock and
	// the clock-native straggler policies apply.
	if cfg.VTime.Enabled() {
		b.vt = newVtimer(cfg.VTime, coord)
		coord.Tick(b.vt.eng.Now())
	}
	b.serve = func(ds []Dispatch) ([]Reply, error) { return runDispatches(dev, cfg.Parallelism, b.vt, ds) }
	return runToDone(coord, b)
}

// simBackend is the synchronous in-process Backend: sync replay and every
// node of RunTiered are this type with a different reply source. A
// round's replies are in hand as soon as its cohort was served, so
// nothing is ever in flight between commands and there is no Wait.
type simBackend struct {
	inProcess
	// serve is the reply source: it answers one round's dispatches, in
	// dispatch order.
	serve func([]Dispatch) ([]Reply, error)
}

// Dispatch confirms every send — in process, shipping cannot fail — and
// serves the cohort.
func (b *simBackend) Dispatch(ds []Dispatch) ([]Reply, error) {
	for _, v := range ds {
		b.coord.DispatchSent(v.Device)
	}
	return b.serve(ds)
}

// AdvanceClock is only ever emitted for timed replies, which only a
// backend with a clock produces.
func (b *simBackend) AdvanceClock(seconds float64) error {
	b.vt.eng.Advance(seconds)
	b.coord.Tick(b.vt.eng.Now())
	return nil
}

// fleetBackend is RunFleet's synchronous backend, the one the support
// table admits adaptive-μ on: the sim backend plus the controller's loss.
type fleetBackend struct {
	simBackend
	m  model.Model
	fl Fleet
}

func (b *fleetBackend) ObserveLoss(v ObserveLoss) (float64, error) {
	return metrics.FleetLoss(b.m, b.fl, v.Params), nil
}

// inProcess is the half of Backend the in-process backends (simBackend,
// vtimeBackend) share: the evaluator and the virtual clock.
type inProcess struct {
	coord *Coordinator
	vt    *vtimer // nil without a latency model
	// eval is the evaluator; nil under a tier edge, whose windowed
	// coordinator plans no evaluation, so Evaluate is never called there.
	eval func(Evaluate) EvalResult
}

func (b *inProcess) Evaluate(v Evaluate) (EvalResult, error) {
	if b.vt != nil {
		// Eval traffic is charged on the virtual clock too, so eval
		// cadence affects deadlines consistently with the analytic byte
		// accounting.
		b.vt.chargeEval(v.WireBytes)
		b.coord.Tick(b.vt.eng.Now())
	}
	return b.eval(v), nil
}

// newSimPair builds the two halves of an in-process run: a coordinator
// with every fleet device registered as one in-process worker, and one
// core.Device hosting the whole fleet lazily — the same device runtime
// the fednet workers wrap, so device-side behavior cannot drift between
// the simulator and the deployment. The coordinator, built first with
// opts (Replay's and Reexecute's executors; NumDevices is the fleet's),
// refuses what its executor cannot run. With codec links (a configured
// codec, or a WireEncoded coordinator's raw one) the device gets its own
// endpoint (the simulator's link state lives where the deployment's
// does), and a configured Checkpointer is wrapped here, where both
// endpoints are in hand, so snapshots carry the device's half too: the
// coordinator never learns a Device exists.
func newSimPair(m model.Model, fl Fleet, cfg Config, opts CoordinatorOptions) (*Coordinator, *Device, error) {
	opts.NumDevices = fl.NumDevices()
	coord, err := NewCoordinator(m, cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	dev := newFleetDevice(m, fl, DeviceOptions{
		Solver:     cfg.Solver,
		Privacy:    cfg.Privacy,
		TrackGamma: cfg.TrackGamma,
		Precision:  cfg.Precision,
	})
	if down, up := coord.CommSpecs(); up.Enabled() {
		if err := dev.InstallLinks(down, up); err != nil {
			return nil, nil, err
		}
		if cfg.Checkpointer != nil {
			coord.cfg.Checkpointer = pairCheckpointer{cfg.Checkpointer, dev.links}
		}
	}
	if _, err := coord.RegisterWorker(dev.Hosted()); err != nil {
		return nil, nil, err
	}
	return coord, dev, nil
}

// pairCheckpointer adds the device endpoint's link state to every
// snapshot an in-process codec run saves and restores it from every one
// it loads. The device runtime owns the uplink rounding streams and
// error-feedback residuals, so a snapshot without its half is refused.
type pairCheckpointer struct {
	inner  Checkpointer
	device *commLinks
}

func (p pairCheckpointer) Load() (*Snapshot, error) {
	s, err := p.inner.Load()
	if err != nil || s == nil {
		return s, err
	}
	if s.DeviceLinks == nil {
		return nil, errors.New("snapshot carries no device link state")
	}
	if err := p.device.restore(s.DeviceLinks); err != nil {
		return nil, fmt.Errorf("device link state: %w", err)
	}
	return s, nil
}

func (p pairCheckpointer) Save(s *Snapshot) (err error) {
	if s.DeviceLinks, err = p.device.snapshot(); err != nil {
		return fmt.Errorf("device link state: %w", err)
	}
	return p.inner.Save(s)
}

// simEval answers an Evaluate command with one in-process pass over the
// whole network, at the (possibly codec-decoded) eval broadcast view:
// one visit per shard per evaluation measures loss and accuracy together
// (a visit is a shard synthesis on a lazy fleet). The pass streams over
// the fleet, so evaluation memory is O(workers × shard).
func simEval(m model.Model, fl Fleet, v Evaluate) EvalResult {
	var res EvalResult
	res.Loss, res.Acc = metrics.FleetEval(m, fl, v.Params)
	if v.TrackDissimilarity {
		res.GradVar, res.B = metrics.FleetDissimilarity(m, fl, v.Params)
	}
	return res
}

// nanEval answers an Evaluate where there is nothing truthful to
// measure: trace replay never trained the model, so its points carry
// NaNs.
func nanEval(Evaluate) EvalResult {
	nan := math.NaN()
	return EvalResult{Loss: nan, Acc: nan, GradVar: nan, B: nan}
}

// runDispatches serves one synchronous round's dispatches in parallel on
// the shared device runtime (the decode → solve → probe → encode path
// lives entirely in core.Device), longest first — work is min(Epochs,
// EpochBudget) × train size, ties in selection order — so no worker starts
// a long solve while the others idle; at Parallelism 1 the trace's
// device-dispatch events come in that work order. Replies land in
// selection order, and with a latency model each is stamped with its
// virtual transfer timing (sequence numbers allocated in selection order,
// the ordering rule the arrival race uses). The compute leg is charged
// for the epochs the device actually ran — a device-side budget that
// truncates the solve also shortens the round's critical path.
func runDispatches(dev *Device, parallelism int, vt *vtimer, ds []Dispatch) ([]Reply, error) {
	replies, errs := make([]Reply, len(ds)), make([]error, len(ds))
	work, order := make([]int, len(ds)), make([]int, len(ds))
	for i, d := range ds {
		work[i], order[i] = min(d.Epochs, expectedEpochs(d.EpochBudget, d.Epochs))*dev.trainSize(d.Device), i
	}
	slices.SortStableFunc(order, func(a, b int) int { return work[b] - work[a] })
	tensor.ParallelFor(len(ds), parallelism, func(j int) {
		i := order[j]
		replies[i], errs[i] = dev.HandleDispatch(ds[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if vt != nil {
		lat := vt.cfg.Model
		for i, d := range ds {
			seq := vt.seq
			vt.seq++
			replies[i].Timed = true
			replies[i].Seq = seq
			replies[i].Rel = lat.DownlinkSeconds(seq, d.Device, d.DownBytes) +
				lat.ComputeSeconds(d.Round, d.Device, replies[i].EpochsDone) +
				lat.UplinkSeconds(seq, d.Device, vt.uplinkBytes(replies[i]))
			replies[i].Lost = lat.Dropped(seq, d.Device)
		}
	}
	return replies, nil
}

// vtimer is a driver's virtual-time state: the engine, the latency
// model, and the per-transfer sequence counters. The policy decisions
// (deadline, byte budget) live in the coordinator; this type only turns
// bytes and epochs into seconds.
type vtimer struct {
	cfg     VTimeConfig
	eng     *vtime.Engine
	upBytes int64 // one reply's uplink price
	seq     int   // per-dispatch jitter/loss stream index
	evalSeq int   // per-eval-broadcast stream index
}

// newVtimer builds the clock of a run that coord decides. A reply is
// priced at its uplink codec's WireSize, a function of the parameter
// count alone, so a driver can time it before the device has produced
// it; an uncoded reply at what Cost charges it.
func newVtimer(cfg VTimeConfig, coord *Coordinator) *vtimer {
	up := coord.paramBytes
	if _, spec := coord.CommSpecs(); spec.Enabled() {
		up = spec.WireSize(coord.mdl.NumParams())
	}
	return &vtimer{cfg: cfg, eng: vtime.NewEngine(), upBytes: up}
}

// uplinkBytes returns a reply's encoded uplink size, or for a raw
// in-process reply the price Cost charges it — shared by every
// virtual-time driver so the transfer charges cannot drift.
func (v *vtimer) uplinkBytes(r Reply) int64 {
	if r.Update != nil {
		return r.Update.WireBytes()
	}
	return v.upBytes
}

// chargeEval advances the clock by the evaluation broadcast's transfer
// time. Eval traffic rides the shared downlink (vtime.EvalDevice), so a
// codec that shrinks the eval broadcast also shrinks the time it costs —
// the virtual-clock counterpart of Cost.EvalBytes.
func (v *vtimer) chargeEval(bytes int64) {
	v.eng.Advance(v.cfg.Model.DownlinkSeconds(v.evalSeq, vtime.EvalDevice, bytes))
	v.evalSeq++
}

// Label renders the conventional method name for a configuration, e.g.
// "FedAvg" or "FedProx(mu=1)". Non-default local solvers are appended as
// a suffix, e.g. "FedProx(mu=1)+adam".
func Label(cfg Config) string {
	var base string
	switch {
	case cfg.AdaptiveMu:
		base = fmt.Sprintf("FedProx(adaptive mu0=%g)", cfg.Mu)
	case cfg.Mu == 0 && cfg.Straggler == DropStragglers:
		base = "FedAvg"
	case cfg.Mu == 0:
		base = "FedProx(mu=0)"
	default:
		base = fmt.Sprintf("FedProx(mu=%g)", cfg.Mu)
	}
	if cfg.Solver != nil && cfg.Solver.Name() != "sgd" {
		base += "+" + cfg.Solver.Name()
	}
	if cfg.Codec.Enabled() {
		base += " @" + cfg.Codec.String()
		if cfg.DownlinkCodec.Enabled() && cfg.DownlinkCodec != cfg.Codec {
			base += "/down:" + cfg.DownlinkCodec.String()
		}
	}
	if cfg.Async.Enabled() {
		a := cfg.Async.WithDefaults(cfg.ClientsPerRound)
		base += fmt.Sprintf(" [%s a=%g p=%g", a.Mode, a.Alpha, a.StalenessExponent)
		if a.Mode == Buffered {
			base += fmt.Sprintf(" K=%d", a.BufferK)
		}
		base += "]"
	}
	if cfg.DeviceBudget != nil {
		base += " [budget]"
	}
	if cfg.Precision == tensor.F32 {
		base += " [f32]"
	}
	if cfg.FoldWeight == WeightByEpochs {
		base += " [w=epochs]"
	}
	if cfg.VTime.Enabled() {
		base += " [vtime]"
	}
	return base
}
