package core

// Trace replay: re-enact a recorded run's arrivals against a fresh
// coordinator under a (possibly different) policy, without running a
// single local solve.
//
// A JSONL trace (internal/obs, decoded by internal/obs/tracefile)
// records every dispatch and every reply's realized latency, loss
// status, and work. The coordinator is sans-I/O, so "what would a
// 30-second deadline have done to this run?" is pure event-feeding:
// rebuild the coordinator with the alternative Config, let it make its
// own dispatch decisions (same Seed → same selection, straggler, and
// budget draws), and answer each Dispatch with a zero-delta reply
// stamped with the recorded arrival. Zero-delta replies keep the model
// parameters inert — folds still advance versions and the fold
// schedule, arrivals, dispositions, byte and epoch accounting all
// re-derive under the new policy — while the expensive half of the
// simulator (solves, evals) is skipped entirely. Replaying under the
// recorded policy reproduces the original fold schedule and every
// arrival-derived History column exactly (asserted by
// TestReplayEquivalence here and by cmd/fedtrace's replay tests); loss and
// accuracy are the one thing replay cannot know, so evaluated points
// carry NaN.

import (
	"errors"
	"fmt"
	"math"

	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/tensor"
)

// replayEntry is one recorded dispatch→reply round trip of a device.
type replayEntry struct {
	version int
	seq     int
	epochs  int
	budget  int
	done    int
	rel     float64 // the reply's own recorded latency
	lost    bool
	replied bool // false when the worker died before replying
}

// replaySource is the recorded arrival tape, keyed by device: the j-th
// dispatch to device d in the replay consumes d's j-th recorded round
// trip. When an alternative policy extends the schedule past the
// recording, a device's tape cycles (its observed latencies repeat);
// a device the recording never contacted samples the whole recorded
// population round-robin, offset by its index, so the draw stays
// deterministic.
type replaySource struct {
	byDevice map[int][]*replayEntry
	cursor   map[int]int
	all      []*replayEntry
	fallback map[int]int
}

// newReplaySource indexes one recorded run's dispatch/reply events.
func newReplaySource(events []obs.Event) (*replaySource, error) {
	s := &replaySource{
		byDevice: make(map[int][]*replayEntry),
		cursor:   make(map[int]int),
		fallback: make(map[int]int),
	}
	open := make(map[int]*replayEntry)
	for _, e := range events {
		switch e.Kind {
		case obs.KindDispatch:
			if open[e.Device] != nil {
				return nil, fmt.Errorf("core: trace dispatches device %d twice with no reply between", e.Device)
			}
			ent := &replayEntry{
				version: e.Version, seq: e.Seq,
				epochs: e.Epochs, budget: e.Budget,
				rel: math.NaN(),
			}
			s.byDevice[e.Device] = append(s.byDevice[e.Device], ent)
			s.all = append(s.all, ent)
			open[e.Device] = ent
		case obs.KindReply:
			ent := open[e.Device]
			if ent == nil || ent.version != e.Version || ent.seq != e.Seq {
				return nil, fmt.Errorf("core: trace reply (device %d, version %d, seq %d) matches no outstanding dispatch", e.Device, e.Version, e.Seq)
			}
			ent.replied = true
			ent.done = e.EpochsDone
			ent.rel = e.Seconds
			ent.lost = e.Disposition == DropLost.String()
			delete(open, e.Device)
			if math.IsNaN(ent.rel) {
				return nil, errors.New("core: trace was recorded without a virtual clock (replies carry no rel); replay needs timed arrivals")
			}
		case obs.KindWorkerLost:
			// The in-flight dispatch (if any) never resolves; its entry
			// stays unreplied and the replay's scheduled worker-lost
			// event cleans up the pending state exactly as the original.
			delete(open, e.Device)
		}
	}
	if len(s.all) == 0 {
		return nil, errors.New("core: trace contains no dispatches to replay")
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

// replayWorkerEvent is a recorded worker-lost or worker-readmit,
// re-enacted at its recorded virtual time.
type replayWorkerEvent struct {
	t      float64
	device int
	lost   bool
}

func workerEvents(events []obs.Event) ([]replayWorkerEvent, error) {
	var out []replayWorkerEvent
	for _, e := range events {
		switch e.Kind {
		case obs.KindWorkerLost, obs.KindWorkerReadmit:
			if math.IsNaN(e.Time) {
				return nil, errors.New("core: trace has untimed worker-lost/readmit events; replay needs timed arrivals")
			}
			out = append(out, replayWorkerEvent{t: e.Time, device: e.Device, lost: e.Kind == obs.KindWorkerLost})
		}
	}
	return out, nil
}

// Replay re-runs one recorded trace's arrivals through a fresh
// coordinator configured with cfg — the recorded policy for an exact
// re-derivation, or an alternative (DeadlineSeconds, RoundBytes, Async
// alpha/staleness-exponent/BufferK, Straggler mode, ...) for a what-if.
// recorded is one run's decoded event stream (split multi-run traces
// with tracefile.Runs). No solver, metric, or privacy code runs; the
// returned History's Loss/Acc columns are NaN and everything else is
// re-derived under cfg.
func Replay(mdl model.Model, fl Fleet, cfg Config, recorded []obs.Event) (*History, error) {
	for _, e := range recorded {
		if e.Kind == obs.KindRunStart && e.N != fl.NumDevices() {
			return nil, fmt.Errorf("core: trace was recorded over %d devices but the replay fleet has %d", e.N, fl.NumDevices())
		}
	}
	src, err := newReplaySource(recorded)
	if err != nil {
		return nil, err
	}
	wes, err := workerEvents(recorded)
	if err != nil {
		return nil, err
	}

	coord, err := NewCoordinator(mdl, cfg, CoordinatorOptions{NumDevices: fl.NumDevices(), replay: true})
	if err != nil {
		return nil, err
	}
	regs := make([]DeviceReg, fl.NumDevices())
	for i := range regs {
		regs[i] = DeviceReg{ID: i, TrainSize: fl.TrainSize(i)}
	}
	if _, err := coord.RegisterWorker(regs); err != nil {
		return nil, err
	}
	vt := newVtimer(cfg.VTime, int64(mdl.NumParams()*8))
	coord.Tick(vt.eng.Now())

	if !cfg.Async.Enabled() {
		if len(wes) > 0 {
			return nil, errors.New("core: trace carries worker-lost events but cfg is synchronous — the sync protocol cannot lose workers")
		}
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
	// schedules its zero-delta reply at the recorded relative latency,
	// and recorded worker losses/re-admissions fire at their recorded
	// times.
	vb := &vtimeBackend{inProcess: inProcess{coord: coord, vt: vt, eval: nanEval}, launch: func(v Dispatch) (float64, func() (Reply, error)) {
		ent := src.next(v.Device)
		if !ent.replied {
			// The recorded worker died before replying; the scheduled
			// worker-lost event clears the pending dispatch exactly as
			// the original run did.
			return 0, nil
		}
		r := zeroDeltaReply(v, v.Seq, ent)
		return vt.eng.Now() + ent.rel, func() (Reply, error) { return r, nil }
	}}
	for _, we := range wes {
		vt.eng.Schedule(we.t, func() {
			coord.Tick(vt.eng.Now())
			if we.lost {
				vb.deliver(coord.WorkerLost([]int{we.device}))
			} else {
				vb.deliver(coord.RegisterWorker([]DeviceReg{{ID: we.device, TrainSize: fl.TrainSize(we.device)}}))
			}
		})
	}
	return runToDone(coord, vb)
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
	rel, lost := ent.rel, ent.lost
	if !ent.replied {
		// The recording's worker died mid-flight. Sync recordings never
		// produce this; it is reachable only when a what-if replays an
		// async recording synchronously — model the silence as a lost
		// reply with zero latency.
		rel, lost = 0, true
	}
	return Reply{
		Device:     d.Device,
		Params:     params,
		EpochsDone: expectedEpochs(d.EpochBudget, d.Epochs),
		Gamma:      math.NaN(),
		Timed:      true,
		Seq:        seq,
		Rel:        rel,
		Lost:       lost,
	}
}
