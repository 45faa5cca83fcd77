package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"fedprox/internal/obs"
	"fedprox/internal/tensor"
)

// The synchronous protocol: rounds, the arrival-order cut, completion,
// adaptive-μ observation, and checkpoint snapshot/restore.

// syncReply is one buffered synchronous-round result, held until the
// round completes so aggregation order stays the selection order.
type syncReply struct {
	in      *pendingDispatch // its view is dead once the reply is decoded
	wk      []float64        // owned: recycled after the round's fold
	done    int              // realized local epochs (== dispatched without a budget)
	gamma   float64
	upBytes int64
	seq     int     // the transfer sequence of a timed reply
	rel     float64 // latency since the round's broadcast; NaN when untimed
	lost    bool
	verdict DropReason // the cut's judgement; ArrivalFolded when untimed
}

// syncRound is the state of the in-flight synchronous round.
type syncRound struct {
	t           int
	mu          float64
	selected    []int
	epochs      []int
	straggler   []bool
	replies     []*syncReply
	outstanding int
}

// window opens a windowed coordinator's next round with the global model
// re-based on view, the parent's broadcast. The re-base happens before the
// round's broadcasts are encoded, so codec link chains and environment
// streams carry over from window to window. Driving the returned commands
// ends on pause (or Done, after the last round) with the fold in c.w.
func (c *Coordinator) window(view []float64) ([]Command, error) {
	if !c.paused {
		return nil, errors.New("core: a window needs a started edge with no window outstanding")
	}
	if len(view) != len(c.w) {
		return nil, fmt.Errorf("core: window view has %d params, model has %d", len(view), len(c.w))
	}
	copy(c.w, view)
	c.paused = false
	return c.beginRound()
}

func (c *Coordinator) startSync() ([]Command, error) {
	startRound := 0
	if c.cfg.Checkpointer != nil {
		saved, err := c.cfg.Checkpointer.Load()
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint load: %w", err)
		}
		if saved != nil {
			if err := c.restore(saved); err != nil {
				return nil, err
			}
			startRound = saved.NextRound
		}
	}
	c.t = startRound
	if startRound == 0 && !c.windowed {
		return c.beginEval(0, c.cfg.Mu, math.NaN(), 0, c.nextRound)
	}
	return c.nextRound()
}

// nextRound opens round c.t — or, on a windowed coordinator with rounds
// remaining, pauses until window opens it.
func (c *Coordinator) nextRound() ([]Command, error) {
	if c.windowed && c.t < c.cfg.Rounds {
		c.paused = true
		return []Command{pause{}}, nil
	}
	return c.beginRound()
}

// selectDevices draws the K devices of one round under the configured
// sampling scheme. Every draw of the environment — selection, straggler
// plans, batch order, init — is a pure function of (Config.Seed, round,
// device), so two methods compared under the same seed face identical
// environments: the paper's "fix the randomly selected devices, the
// stragglers, and mini-batch orders across all runs" protocol.
func (c *Coordinator) selectDevices(round int) []int {
	rng := c.selRoot.SplitIndex(round)
	k := min(c.cfg.ClientsPerRound, c.n)
	if c.cfg.Sampling == WeightedSimpleAvg {
		return rng.WeightedChoice(c.weights, k)
	}
	return rng.Choice(c.n, k)
}

// stragglerPlan returns, for each selected device, its epoch budget and
// whether it straggles this round.
//
// With the default model, a StragglerFraction of the selected devices are
// designated stragglers and draw a budget uniformly from [1, E]
// (Section 5.2); everyone else gets the full E epochs. When
// Config.Capability is set, each device's budget instead comes from its
// simulated hardware against the round's global clock cycle, and a device
// straggles exactly when its budget falls short of E; the round's
// straggler stream is then never drawn.
func (c *Coordinator) stragglerPlan(round int, selected []int) (epochs []int, straggler []bool) {
	cfg := c.cfg
	n := len(selected)
	epochs = make([]int, n)
	straggler = make([]bool, n)
	if cfg.Capability != nil {
		for i, k := range selected {
			epochs[i] = min(max(cfg.Capability.EpochBudget(round, k, cfg.LocalEpochs), 0), cfg.LocalEpochs)
			straggler[i] = epochs[i] < cfg.LocalEpochs
		}
		return epochs, straggler
	}
	for i := range epochs {
		epochs[i] = cfg.LocalEpochs
	}
	nStrag := int(cfg.StragglerFraction*float64(n) + 0.5)
	if nStrag == 0 {
		return epochs, straggler
	}
	rng := c.stragRoot.SplitIndex(round)
	for _, i := range rng.Choice(n, nStrag) {
		straggler[i] = true
		epochs[i] = rng.IntRange(1, cfg.LocalEpochs)
	}
	return epochs, straggler
}

// policyDropped reports whether the round's i-th selected device is a
// straggler the drop policy never contacts.
func (c *Coordinator) policyDropped(r *syncRound, i int) bool {
	return c.cfg.Straggler == DropStragglers && r.straggler[i]
}

// beginRound opens round c.t: selects devices, plans stragglers, encodes
// the contacted devices' broadcasts on Config.Parallelism workers, and
// emits the round's Dispatches. Only the encodes run concurrently — each
// advances one device's link state (its codecs, rounding stream and
// broadcast shadow) into its own slot; pending records, events and
// commands are then built serially in selection order, so the History and
// the trace do not depend on Parallelism, and a failing round reports the
// error of its lowest selection index. Each pendingDispatch holds its
// decoded view, the device's broadcast shadow or a vector it owns, until
// HandleReply has decoded the reply against it. A round whose every
// device is policy-dropped completes immediately.
func (c *Coordinator) beginRound() ([]Command, error) {
	if c.t >= c.cfg.Rounds {
		return []Command{c.finish()}, nil
	}
	t := c.t
	c.version = t
	mu := c.cfg.Mu
	if c.muc != nil {
		mu = c.muc.Mu()
	}
	selected := c.selectDevices(t)
	epochs, straggler := c.stragglerPlan(t, selected)
	r := &syncRound{
		t:         t,
		mu:        mu,
		selected:  selected,
		epochs:    epochs,
		straggler: straggler,
		replies:   make([]*syncReply, len(selected)),
	}
	c.round = r
	c.emit(obs.Event{Kind: obs.KindRoundOpen, Round: t, N: len(selected)})
	var casts []downcast
	if c.links != nil {
		casts = make([]downcast, len(selected))
		tensor.ParallelFor(len(selected), c.cfg.Parallelism, func(i int) {
			if !c.policyDropped(r, i) {
				casts[i] = c.links.broadcast(selected[i], c.w)
			}
		})
	}
	var cmds []Command
	for i, k := range selected {
		if c.policyDropped(r, i) {
			// Never contacted; accounted at round completion.
			c.emit(obs.Event{Kind: obs.KindDrop, Round: t, Device: k, Disposition: DropPolicy.String()})
			continue
		}
		// Without links the device trains from c.w itself.
		b := downcast{view: c.w, db: c.paramBytes}
		if casts != nil {
			b = casts[i]
		}
		if b.err != nil {
			return nil, b.err
		}
		r.outstanding++
		cmds = append(cmds, c.dispatch(i, t, t, k, epochs[i], mu, b))
	}
	if r.outstanding == 0 {
		return c.completeRound()
	}
	return cmds, nil
}

// cutSyncRound applies the clock-native straggler policies to a timed
// round: replies race in (arrival, seq) order and judge gives each its
// verdict against a byte window opened with the round, the round's
// critical path becomes its duration, and every transmitted reply lands
// in the Arrivals trace.
func (c *Coordinator) cutSyncRound(r *syncRound) (duration float64) {
	legs := make([]*syncReply, 0, len(r.replies))
	for _, rep := range r.replies {
		if rep != nil {
			legs = append(legs, rep)
		}
	}
	sort.Slice(legs, func(a, b int) bool {
		if legs[a].rel != legs[b].rel {
			return legs[a].rel < legs[b].rel
		}
		return legs[a].seq < legs[b].seq
	})
	deadline := c.cfg.VTime.DeadlineSeconds
	c.windowBytes = 0
	for _, rep := range legs {
		rep.verdict = c.judge(rep.rel, rep.lost, false, rep.in.downBytes, rep.upBytes)
		// Server occupancy: an accepted reply holds the round until it
		// arrives; a late reply holds it until the deadline closes the
		// round; a lost reply until its expected arrival (the server's
		// detection point) or the deadline, whichever is earlier. A
		// budget-dropped reply holds nothing — budget drops are the
		// arrival-order tail, so the budget was spent (and the round
		// closed) before it arrived.
		occ := rep.rel
		switch {
		case rep.verdict == DropBudget:
			occ = 0
		case deadline > 0 && (rep.verdict == DropDeadline || (rep.verdict == DropLost && deadline < occ)):
			occ = deadline
		}
		if occ > duration {
			duration = occ
		}
		c.recordArrival(c.cfg.Rounds*len(r.selected), rep.in, rep.in.sentAt+rep.rel, rep.verdict)
	}
	return duration
}

// completeRound closes the in-flight round: applies the virtual-time cut
// when the replies are timed, settles every reply in selection order,
// folds the surviving updates, and walks the post-round sequence
// (adaptive-μ observation, evaluation, checkpointing, next round).
func (c *Coordinator) completeRound() ([]Command, error) {
	r := c.round
	c.round = nil

	var pre []Command
	roundSecs := math.NaN()
	if slices.ContainsFunc(r.replies, func(rep *syncReply) bool { return rep != nil && !math.IsNaN(rep.rel) }) {
		roundSecs = c.cutSyncRound(r)
		pre = append(pre, AdvanceClock{Seconds: roundSecs})
	}

	// A policy-dropped straggler moved no bytes, but its planned epochs
	// are charged, all wasted (Cost): the work a deployment would lose.
	// A device modeled as running anyway still stops at its compute
	// budget. Contacted devices were charged by DispatchSent and realize.
	for i := range r.selected {
		if c.policyDropped(r, i) {
			ep := expectedEpochs(c.deviceBudget(r.t, r.selected[i], r.epochs[i]), r.epochs[i])
			c.cost.DeviceEpochs += ep
			c.cost.WastedEpochs += ep
		}
	}

	var params [][]float64
	var nks []float64
	gammaSum, gammaN := 0.0, 0
	for _, rep := range r.replies {
		if rep == nil {
			continue
		}
		c.settle(rep.in, rep.verdict, rep.done, rep.upBytes, rep.rel)
		if rep.verdict != ArrivalFolded {
			continue
		}
		params = append(params, rep.wk)
		nks = append(nks, c.foldWeight(c.sizes[rep.in.device], rep.done))
		if c.cfg.TrackGamma {
			gammaSum += rep.gamma
			gammaN++
		}
	}
	gamma := math.NaN()
	if gammaN > 0 {
		gamma = gammaSum / float64(gammaN)
	}
	if len(params) > 0 && aggregate(c.w, params, nks, c.cfg.Sampling) {
		c.emit(obs.Event{Kind: obs.KindFold, Round: r.t, Version: r.t + 1, N: len(params)})
	}
	// Folded or cut, every solution of the round is dead now.
	for _, rep := range r.replies {
		if rep != nil {
			tensor.PutVec(rep.wk)
		}
	}
	c.emit(obs.Event{Kind: obs.KindRoundClose, Round: r.t, N: len(params), Seconds: roundSecs})

	outcome := &roundOutcome{t: r.t, mu: r.mu, gamma: gamma, participants: len(params)}
	if c.muc != nil {
		// The adaptive-μ controller observes the loss every round; other
		// configurations only pay for evaluation on recorded rounds.
		c.outcome = outcome
		return append(pre, ObserveLoss{Params: c.w}), nil
	}
	more, err := c.afterObserve(outcome)
	return append(pre, more...), err
}

// roundOutcome carries a completed round's recording inputs across the
// adaptive-μ wait state.
type roundOutcome struct {
	t            int
	mu           float64
	gamma        float64
	participants int
}

// LossObserved answers an ObserveLoss command with the global training
// loss at the requested parameters.
func (c *Coordinator) LossObserved(loss float64) ([]Command, error) {
	if c.muc == nil || c.outcome == nil {
		return nil, errors.New("core: unexpected LossObserved")
	}
	c.muc.Observe(loss)
	out := c.outcome
	c.outcome = nil
	return c.afterObserve(out)
}

// afterObserve continues a completed round past the adaptive-μ
// observation: evaluation if the round is recorded, then checkpointing
// and the next round.
func (c *Coordinator) afterObserve(out *roundOutcome) ([]Command, error) {
	t := out.t
	needEval := (t+1)%c.cfg.EvalEvery == 0 || t == c.cfg.Rounds-1
	if needEval && !c.windowed {
		return c.beginEval(t+1, out.mu, out.gamma, out.participants, func() ([]Command, error) {
			return c.afterRecord(t)
		})
	}
	return c.afterRecord(t)
}

// afterRecord finishes round t: persists a checkpoint (every round, when
// the run has a Checkpointer) and opens the next round.
func (c *Coordinator) afterRecord(t int) ([]Command, error) {
	if c.cfg.Checkpointer != nil {
		snap, err := c.snapshot(t + 1)
		if err != nil {
			return nil, err
		}
		if err := c.cfg.Checkpointer.Save(snap); err != nil {
			return nil, fmt.Errorf("core: checkpoint save: %w", err)
		}
		c.emit(obs.Event{Kind: obs.KindCheckpoint, Round: t + 1})
	}
	c.t = t + 1
	return c.nextRound()
}

// snapshot captures the resumable state with round nextRound about to
// open. Every slice in it is a copy: the snapshot is the Checkpointer's to
// keep.
func (c *Coordinator) snapshot(nextRound int) (*Snapshot, error) {
	s := &Snapshot{
		Label:     c.hist.Label,
		Seed:      c.cfg.Seed,
		NextRound: nextRound,
		Params:    slices.Clone(c.w),
		Points:    slices.Clone(c.hist.Points),
		Cost:      c.cost,
		Work:      c.work,
	}
	if c.muc != nil {
		ms := c.muc.snapshot()
		s.AdaptiveMu = &ms
	}
	if c.links != nil {
		var err error
		if s.Links, err = c.links.snapshot(); err != nil {
			return nil, fmt.Errorf("core: checkpoint link state: %w", err)
		}
	}
	return s, nil
}

// restore resumes from a snapshot. It refuses another run's snapshot, a
// NextRound outside [0, Rounds], and one without the state this run
// cannot reconstruct: a codec run's rounding streams and residuals, an
// adaptive run's controller.
func (c *Coordinator) restore(s *Snapshot) error {
	switch {
	case s.Label != c.hist.Label || s.Seed != c.cfg.Seed:
		return fmt.Errorf("core: checkpoint is run %q seed %d, this is %q seed %d", s.Label, s.Seed, c.hist.Label, c.cfg.Seed)
	case s.NextRound < 0 || s.NextRound > c.cfg.Rounds:
		return fmt.Errorf("core: checkpoint resumes at round %d, outside [0, %d]", s.NextRound, c.cfg.Rounds)
	case len(s.Params) != len(c.w):
		return fmt.Errorf("core: checkpoint has %d params, model has %d", len(s.Params), len(c.w))
	case c.muc != nil && s.AdaptiveMu == nil:
		return errors.New("core: checkpoint carries no adaptive-mu state")
	}
	copy(c.w, s.Params)
	c.hist.Points = append(c.hist.Points, s.Points...)
	c.cost = s.Cost
	c.cost.WireUplinkBytes, c.cost.WireDownlinkBytes = 0, 0
	c.work = s.Work
	if c.muc != nil {
		c.muc.restore(*s.AdaptiveMu)
	}
	if c.links != nil {
		if s.Links == nil {
			return errors.New("core: checkpoint carries no codec link state")
		}
		if err := c.links.restore(s.Links); err != nil {
			return fmt.Errorf("core: checkpoint link state: %w", err)
		}
	}
	return nil
}

// aggregate folds a synchronous round's updates into w in place and
// reports whether it moved w: a fold whose weights sum to zero (every
// folded reply ran 0 epochs under WeightByEpochs) leaves the model as it
// is, as foldStaleDeltas does.
func aggregate(w []float64, params [][]float64, nks []float64, scheme SamplingScheme) bool {
	switch {
	case scheme == WeightedSimpleAvg:
		tensor.Mean(w, params)
	case slices.Max(nks) == 0: // weights are never negative
		return false
	default:
		tensor.WeightedMean(w, params, nks)
	}
	return true
}
