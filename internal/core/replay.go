package core

// A recorded trace is the run's tape, and it has two readers.
//
// Replay re-enacts a virtual-time run's arrivals against a fresh
// coordinator under a (possibly different) policy, without running a
// single local solve. A JSONL trace (internal/obs, decoded by
// internal/obs/tracefile) records every dispatch and every reply's
// realized latency, loss status, and work. The coordinator is sans-I/O,
// so "what would a 30-second deadline have done to this run?" is pure
// event-feeding: rebuild the coordinator with the alternative Config, let
// it make its own dispatch decisions (same Seed → same selection,
// straggler, and budget draws), and answer each Dispatch with a
// zero-delta reply stamped with the recorded arrival. Zero-delta replies
// keep the model parameters inert — folds still advance versions and the
// fold schedule, arrivals, dispositions, byte and epoch accounting all
// re-derive under the new policy — while the expensive half of the
// simulator (solves, evals) is skipped entirely. Replaying under the
// recorded policy reproduces the original fold schedule and every
// arrival-derived History column exactly (asserted by
// TestReplayEquivalence here and by cmd/fedtrace's replay tests); loss and
// accuracy are the one thing replay cannot know, so evaluated points
// carry NaN.
//
// Reexecute reads the one input the coordinator does not decide — the
// order a wire run's replies, worker losses and re-admissions reached it
// — and feeds real solves back in that order: a fednet async run
// re-executes bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/tensor"
)

// replayEntry is one recorded dispatch→reply round trip of a device.
type replayEntry struct {
	version, seq int
	rel          float64 // the reply's own recorded latency
	lost         bool
}

// replaySource is the recorded tape, read two ways. Replay keys it by
// device: the j-th dispatch to device d in the replay consumes d's j-th
// recorded round trip. When an alternative policy extends the schedule
// past the recording, a device's tape cycles (its observed latencies
// repeat); a device the recording never contacted samples the whole
// recorded population round-robin, offset by its index, so the draw stays
// deterministic. Reexecute reads tape, in order.
type replaySource struct {
	byDevice map[int][]*replayEntry
	cursor   map[int]int
	all      []*replayEntry
	fallback map[int]int

	label string // the recorded run's name
	// tape indexes the inputs the recorded coordinator was fed — replies,
	// worker losses and re-admissions — and its evaluations, which mark
	// where a loss during an evaluation broadcast falls.
	tape    []int
	untimed bool // a reply carries no latency
	churn   bool // a worker was lost or re-admitted
}

// newReplaySource indexes one recorded run of an n-device fleet: the one
// pass over its events both readers share.
func newReplaySource(events []obs.Event, n int) (*replaySource, error) {
	s := &replaySource{
		byDevice: make(map[int][]*replayEntry),
		cursor:   make(map[int]int),
		fallback: make(map[int]int),
	}
	open := make(map[int]*replayEntry)
	for i, e := range events {
		switch e.Kind {
		case obs.KindRunStart:
			if e.N != n {
				return nil, fmt.Errorf("core: trace was recorded over %d devices but the fleet has %d", e.N, n)
			}
			s.label = e.Label
			continue
		case obs.KindDispatch:
			if open[e.Device] != nil {
				return nil, fmt.Errorf("core: trace dispatches device %d twice with no reply between", e.Device)
			}
			ent := &replayEntry{version: e.Version, seq: e.Seq}
			s.byDevice[e.Device] = append(s.byDevice[e.Device], ent)
			s.all = append(s.all, ent)
			open[e.Device] = ent
			continue
		case obs.KindReply:
			ent := open[e.Device]
			if ent == nil || ent.version != e.Version || ent.seq != e.Seq {
				return nil, fmt.Errorf("core: trace reply (device %d, version %d, seq %d) matches no outstanding dispatch", e.Device, e.Version, e.Seq)
			}
			ent.rel, ent.lost = e.Seconds, e.Disposition == DropLost.String()
			s.untimed = s.untimed || math.IsNaN(ent.rel)
			delete(open, e.Device)
		case obs.KindWorkerLost, obs.KindWorkerReadmit:
			// A lost worker's in-flight dispatch never resolves.
			delete(open, e.Device)
			s.churn = true
		case obs.KindEval:
		default:
			continue
		}
		s.tape = append(s.tape, i)
	}
	if len(s.all) == 0 {
		return nil, errors.New("core: trace contains no dispatches to replay")
	}
	if len(open) > 0 {
		return nil, errors.New("core: trace has a dispatch with no reply and no worker loss")
	}
	return s, nil
}

// next returns the recorded round trip backing the replay's next
// dispatch to device.
func (s *replaySource) next(device int) *replayEntry {
	if tape := s.byDevice[device]; len(tape) > 0 {
		i := s.cursor[device] % len(tape)
		s.cursor[device]++
		return tape[i]
	}
	i := (device + s.fallback[device]) % len(s.all)
	s.fallback[device]++
	return s.all[i]
}

// Replay re-runs one recorded trace's arrivals through a fresh
// coordinator configured with cfg — the recorded policy for an exact
// re-derivation, or an alternative (DeadlineSeconds, RoundBytes, Async
// alpha/staleness-exponent/BufferK, Straggler mode, ...) for a what-if.
// recorded is one run's decoded event stream (split multi-run traces
// with tracefile.Runs). No solver, metric, or privacy code runs; the
// returned History's Loss/Acc columns are NaN and everything else is
// re-derived under cfg. A trace with worker losses or re-admissions is
// refused: they are wall-clock events, which Reexecute reads.
func Replay(mdl model.Model, fl Fleet, cfg Config, recorded []obs.Event) (*History, error) {
	src, err := newReplaySource(recorded, fl.NumDevices())
	switch {
	case err != nil:
		return nil, err
	case src.churn:
		return nil, errors.New("core: trace carries worker-lost or worker-readmit events, which only Reexecute re-enacts")
	case src.untimed:
		return nil, errors.New("core: trace was recorded without a virtual clock (replies carry no rel); replay needs timed arrivals")
	}

	coord, _, err := newSimPair(mdl, fl, cfg, CoordinatorOptions{replay: true})
	if err != nil {
		return nil, err
	}
	vt := newVtimer(cfg.VTime, coord)
	coord.Tick(vt.eng.Now())

	if !cfg.Async.Enabled() {
		// The sim backend with the tape as its reply source: reply in
		// dispatch order with the per-transfer sequence numbers the
		// recording's driver allocated (one global counter across rounds)
		// so the arrival race sorts identically.
		return runToDone(coord, &simBackend{inProcess: inProcess{coord: coord, vt: vt, eval: nanEval}, serve: func(ds []Dispatch) ([]Reply, error) {
			replies := make([]Reply, len(ds))
			for i, d := range ds {
				replies[i] = zeroDeltaReply(d, vt.seq, src.next(d.Device))
				vt.seq++
			}
			return replies, nil
		}})
	}

	// The vtime backend with the tape as its reply source: each Dispatch
	// schedules its zero-delta reply at the recorded relative latency.
	return runToDone(coord, &vtimeBackend{inProcess: inProcess{coord: coord, vt: vt, eval: nanEval}, launch: func(v Dispatch) (float64, func() (Reply, error)) {
		ent := src.next(v.Device)
		r := zeroDeltaReply(v, v.Seq, ent)
		return vt.eng.Now() + ent.rel, func() (Reply, error) { return r, nil }
	}})
}

// zeroDeltaReply synthesizes the reply replay feeds for one dispatch:
// the broadcast view echoed back (a zero delta — folds advance the
// version without moving the parameters), the deterministic
// budget-clamped work, and the recorded arrival stamp. The view is
// copied because the folds' accumulators zero their destination (the
// live parameter vector) before reading inputs.
func zeroDeltaReply(d Dispatch, seq int, ent *replayEntry) Reply {
	params := tensor.GetVec[float64](len(d.View))
	copy(params, d.View)
	return Reply{
		Device:     d.Device,
		Params:     params,
		EpochsDone: expectedEpochs(d.EpochBudget, d.Epochs),
		Gamma:      math.NaN(),
		Timed:      true,
		Seq:        seq,
		Rel:        ent.rel,
		Lost:       ent.lost,
	}
}

// Reexecute re-runs one recorded fednet run — recorded is its decoded
// event stream, cfg its Training config — with real solves: the
// coordinator is fednet's, one fleet device serves every device, and the
// replies, worker losses and re-admissions reach the coordinator in the
// order the trace records. Same config, same tape ⇒ the recorded History
// bit for bit, but for the transport's measured bytes
// (Cost.WireUplinkBytes/WireDownlinkBytes, zero here), provided the
// workers ran the default solver. The re-execution holds itself to the
// tape: the first entry it cannot match — a reply no pending dispatch
// answers, an evaluation whose loss or accuracy differs by a bit — is an
// error naming its index in recorded.
func Reexecute(mdl model.Model, fl Fleet, cfg Config, recorded []obs.Event) (*History, error) {
	coord, dev, err := newSimPair(mdl, fl, cfg, CoordinatorOptions{WireEncoded: true})
	if err != nil {
		return nil, err
	}
	src, err := newReplaySource(recorded, fl.NumDevices())
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(src.label, coord.hist.Label) {
		return nil, fmt.Errorf("core: trace records run %q, cfg runs %q", src.label, coord.hist.Label)
	}
	coord.hist.Label = src.label // with the wire driver's suffix
	b := &tapeBackend{coord: coord, dev: dev, events: recorded, tape: src.tape, kept: make(map[int]Reply)}
	h, err := runToDone(coord, b)
	if err == nil && b.next < len(b.tape) {
		err = fmt.Errorf("core: the re-execution ended before tape entry %d", b.tape[b.next])
	}
	return h, err
}

// tapeBackend is Reexecute's Backend: a dispatch is solved at once and
// its reply kept until the tape hands it to the coordinator.
type tapeBackend struct {
	coord  *Coordinator
	dev    *Device
	events []obs.Event
	tape   []int // indices into events, read in order from next
	next   int
	kept   map[int]Reply // each device's latest dispatch's
}

func (b *tapeBackend) Dispatch(ds []Dispatch) ([]Reply, error) {
	for _, d := range ds {
		b.coord.DispatchSent(d.Device)
	}
	replies, err := runDispatches(b.dev, b.coord.cfg.Parallelism, nil, ds)
	for i, r := range replies {
		b.kept[ds[i].Device] = r
	}
	return nil, err
}

// peek is the kind of the tape's next entry (0 at its end).
func (b *tapeBackend) peek() obs.Kind {
	if b.next == len(b.tape) {
		return 0
	}
	return b.events[b.tape[b.next]].Kind
}

// Evaluate feeds the worker losses the tape records before the
// evaluation (a connection that failed while the broadcast was out),
// then combines the live devices' rows as the wire backend combines its
// workers'.
func (b *tapeBackend) Evaluate(v Evaluate) (EvalResult, error) {
	for b.peek() == obs.KindWorkerLost {
		if _, err := b.feed(); err != nil {
			return EvalResult{}, err
		}
	}
	if b.peek() != obs.KindEval {
		return EvalResult{}, fmt.Errorf("core: the re-execution evaluates round %d where the tape has no evaluation", v.Round)
	}
	at := b.tape[b.next]
	b.next++
	reply, err := b.dev.HandleEval(EvalRequest{Seq: v.Seq, Params: v.Params})
	if err != nil {
		return EvalResult{}, err
	}
	sum, acc := b.coord.CombineEvals(slices.DeleteFunc(reply.Devices, func(r DeviceEval) bool { return !b.coord.live[r.Device] }))
	if rec := b.events[at]; math.Float64bits(sum.TrainLoss) != math.Float64bits(rec.Loss) || math.Float64bits(acc) != math.Float64bits(rec.Acc) {
		return EvalResult{}, fmt.Errorf("core: tape entry %d: the re-execution measures loss %v accuracy %v, the recording %v %v", at, sum.TrainLoss, acc, rec.Loss, rec.Acc)
	}
	return EvalResult{Loss: sum.TrainLoss, Acc: acc}, nil
}

// Wait feeds tape entries until one provokes commands.
func (b *tapeBackend) Wait() ([]Command, error) {
	for b.peek() != 0 {
		if cmds, err := b.feed(); err != nil || len(cmds) > 0 {
			return cmds, err
		}
	}
	return nil, errors.New("core: the tape ended while the re-execution waits for an input")
}

// feed hands the coordinator the tape's next input: one reply, or one
// worker's losses or re-admissions — a run of adjacent events of one
// kind, which a wire backend reports in one call.
func (b *tapeBackend) feed() (cmds []Command, err error) {
	at := b.tape[b.next]
	e := b.events[at]
	b.next++
	ids := []int{e.Device}
	for e.Kind != obs.KindReply && b.peek() == e.Kind && b.tape[b.next] == at+len(ids) {
		ids = append(ids, b.events[b.tape[b.next]].Device)
		b.next++
	}
	switch e.Kind {
	case obs.KindReply:
		if in := b.coord.pending[e.Device]; in == nil || in.version != e.Version || in.seq != e.Seq {
			return nil, fmt.Errorf("core: tape entry %d: reply (device %d, version %d, seq %d) matches no pending dispatch", at, e.Device, e.Version, e.Seq)
		}
		cmds, err = b.coord.HandleReply(b.kept[e.Device])
	case obs.KindWorkerLost:
		cmds, err = b.coord.WorkerLost(ids)
	case obs.KindWorkerReadmit:
		regs := make([]DeviceReg, len(ids))
		for i, id := range ids {
			b.dev.links.reset(id) // the revived worker's endpoint starts fresh
			// trainSize reads no shard of a device outside the fleet, which
			// RegisterWorker then refuses.
			regs[i] = DeviceReg{ID: id, TrainSize: b.dev.trainSize(id)}
		}
		cmds, err = b.coord.RegisterWorker(regs)
	default:
		err = errors.New("an evaluation the re-execution does not make")
	}
	if err != nil {
		return nil, fmt.Errorf("core: tape entry %d: %w", at, err)
	}
	return cmds, nil
}
