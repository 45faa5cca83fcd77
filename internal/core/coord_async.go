package core

import (
	"errors"
	"fmt"
	"math"

	"fedprox/internal/obs"
	"fedprox/internal/tensor"
)

// The asynchronous protocol: the staleness-damped folds, keeping
// MaxInFlight devices busy, the fold buffer, and lost workers.

// StaleDelta is one device contribution to a staleness-damped fold: the
// model delta the device computed, its aggregation weight n_k, and the
// model version of the broadcast snapshot it trained from.
type StaleDelta struct {
	Delta   []float64
	Weight  float64
	Version int
}

// FoldStaleDeltas applies the coordinator's asynchronous update rule,
// FedBuff style: each delta is damped by its own staleness at fold time,
// alpha_k = alpha/(1+s)^p with s = version − Version, and the damped
// deltas combine under the run's sampling scheme,
//
//	w ← w + Σ n_k·alpha_k·Δ_k / Σ n_k   (uniform sampling)
//	w ← w + Σ alpha_k·Δ_k / |B|         (weighted sampling)
//
// With fresh replies (s = 0, alpha = 1, views = w) this reproduces the
// synchronous round update exactly; for a single-entry batch it is the
// delta form of the FedAsync fold. It reports whether the model advanced
// a version (false on an empty batch).
func FoldStaleDeltas(w []float64, batch []StaleDelta, version int, sampling SamplingScheme, alpha, p float64) bool {
	return foldStaleDeltas(w, batch, version, sampling, alpha, p, nil)
}

// foldStats accumulates staleness statistics across folds between
// evaluated points.
type foldStats struct {
	sum float64
	max float64
	n   int
}

func foldStaleDeltas(w []float64, batch []StaleDelta, version int, sampling SamplingScheme, alpha, p float64, st *foldStats) bool {
	num := tensor.GetVec[float64](len(w))
	defer tensor.PutVec(num)
	tensor.Zero(num)
	den := 0.0
	for _, e := range batch {
		s := float64(version - e.Version)
		a := alpha / math.Pow(1+s, p)
		if st != nil {
			st.sum += s
			st.n++
			if s > st.max {
				st.max = s
			}
		}
		cw := 1.0
		if sampling != WeightedSimpleAvg {
			cw = e.Weight
		}
		den += cw
		for i, v := range e.Delta {
			num[i] += cw * a * v
		}
	}
	if den == 0 {
		return false
	}
	for i := range w {
		w[i] += num[i] / den
	}
	return true
}

func (c *Coordinator) startAsync() ([]Command, error) {
	c.async = c.cfg.Async.WithDefaults(c.cfg.ClientsPerRound)
	c.flushSize, c.roundSize = 1, c.cfg.ClientsPerRound
	if c.async.Mode == Buffered {
		c.flushSize = c.async.BufferK
		c.roundSize = c.async.BufferK
	}
	c.target = c.cfg.Rounds * c.roundSize
	// Safety valve: virtual-time policies that drop every reply (a byte
	// budget below one round-trip, a deadline below the fastest latency)
	// would otherwise dispatch forever.
	c.maxDispatches = 64*c.target + 1024
	c.idle = newIdleSet(c.n)
	c.idle.fill()
	return c.beginEval(0, c.cfg.Mu, math.NaN(), 0, c.fillAsync)
}

// asyncDispatch ships one dispatch to an idle device chosen by the
// environment streams (uniform or size-weighted over the sorted idle
// set). Selection, straggler budgets, and batch orders are split per
// dispatch sequence — the same derivation every async executor has
// always used. The uniform mode draws rank-then-select on the idle
// set's Fenwick tree, O(log N) per dispatch, consuming exactly the draw
// the old sort-the-idle-slice implementation consumed; the weighted
// mode still walks the ordered idle population because its float prefix
// scan is not tree-decomposable without perturbing the draw.
func (c *Coordinator) asyncDispatch() (Dispatch, error) {
	rng := c.selRoot.SplitIndex(c.dispatchSeq)
	var id int
	if c.cfg.Sampling == WeightedSimpleAvg {
		ids := make([]int, 0, c.idle.len())
		ws := make([]float64, 0, c.idle.len())
		c.idle.ascending(func(d int) {
			ids = append(ids, d)
			ws = append(ws, c.weights[d])
		})
		id = ids[rng.WeightedChoice(ws, 1)[0]]
	} else {
		id = c.idle.kth(rng.Intn(c.idle.len()))
	}
	epochs := c.cfg.LocalEpochs
	if c.cfg.StragglerFraction > 0 {
		srng := c.stragRoot.SplitIndex(c.dispatchSeq)
		if srng.Bernoulli(c.cfg.StragglerFraction) {
			epochs = srng.IntRange(1, c.cfg.LocalEpochs)
		}
	}
	seq := c.dispatchSeq
	c.dispatchSeq++
	var b downcast
	if c.links != nil {
		if b = c.links.broadcast(id, c.w); b.err != nil {
			return Dispatch{}, b.err
		}
	} else {
		// Freeze the broadcast at dispatch time: the solve may run
		// concurrently with later model folds, so the device must see the
		// version it was dispatched, not a racing c.w. Pooled — the copy
		// is recycled when the reply resolves (or the worker is lost). At
		// f32 it is narrowed as raw's link narrows it: the stale-delta
		// fold subtracts the same base with or without one.
		b = downcast{view: tensor.GetVec[float64](len(c.w)), owned: true, db: c.paramBytes}
		copy(b.view, c.w)
		if c.cfg.Precision == tensor.F32 {
			for i, x := range b.view {
				b.view[i] = float64(float32(x))
			}
		}
	}
	c.idle.remove(id)
	return c.dispatch(seq, seq, c.folded/c.roundSize, id, epochs, c.cfg.Mu, b), nil
}

// fillAsync keeps MaxInFlight devices busy while the schedule has work
// left, and emits Done once every fold landed and the last reply
// drained.
func (c *Coordinator) fillAsync() ([]Command, error) {
	var cmds []Command
	for c.folded+len(c.pending) < c.target && len(c.pending) < c.async.MaxInFlight && c.idle.len() > 0 {
		if c.cfg.VTime.Enabled() && c.dispatchSeq >= c.maxDispatches {
			return nil, fmt.Errorf("core: async schedule made no progress after %d dispatches — the deadline/byte-budget policy drops every reply", c.dispatchSeq)
		}
		d, err := c.asyncDispatch()
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, d)
	}
	if c.folded >= c.target && len(c.pending) == 0 && !c.finished {
		cmds = append(cmds, c.finish())
	}
	return cmds, nil
}

// handleAsyncReply judges, settles and folds (or discards) one arrived
// reply at once: the device's model delta, damped by its staleness
// alpha/(1+s)^p, enters the aggregation buffer; the model advances one
// version per flush; every roundSize folds is a milestone, evaluated on
// the sync cadence.
func (c *Coordinator) handleAsyncReply(in *pendingDispatch, wk []float64, up int64, done int, rel float64, lost bool) ([]Command, error) {
	if c.live[in.device] {
		c.idle.add(in.device)
	}
	reason := c.judge(rel, lost, c.folded >= c.target, in.downBytes, up)
	c.settle(in, reason, done, up, rel)
	if c.timed() {
		c.recordArrival(c.target, in, c.now, reason)
	}
	var cmds []Command
	if reason == ArrivalFolded {
		delta := tensor.GetVec[float64](len(wk))
		for i := range wk {
			delta[i] = wk[i] - in.view[i]
		}
		c.buffer = append(c.buffer, StaleDelta{Delta: delta, Weight: c.foldWeight(c.sizes[in.device], done), Version: in.version})
		c.folded++
		if len(c.buffer) >= c.flushSize {
			if foldStaleDeltas(c.w, c.buffer, c.version, c.cfg.Sampling, c.async.Alpha, c.async.StalenessExponent, &c.stats) {
				c.version++
				c.emit(obs.Event{Kind: obs.KindFold, Round: c.folded / c.roundSize, Version: c.version, N: len(c.buffer)})
			}
			// The fold copied everything it needed into c.w; the buffered
			// deltas are dead.
			for _, sd := range c.buffer {
				tensor.PutVec(sd.Delta)
			}
			c.buffer = c.buffer[:0]
		}
		if c.folded%c.roundSize == 0 {
			c.windowBytes = 0 // the byte-budget window is per milestone
			milestone := c.folded / c.roundSize
			c.emit(obs.Event{Kind: obs.KindRoundClose, Round: milestone, N: c.roundSize, Seconds: math.NaN()})
			if milestone%c.cfg.EvalEvery == 0 || milestone == c.cfg.Rounds {
				// A milestone always folds exactly roundSize replies —
				// the async analogue of the sync per-round participant
				// count.
				more, err := c.beginEval(milestone, c.cfg.Mu, math.NaN(), c.roundSize, c.fillAsync)
				if err != nil {
					return nil, err
				}
				cmds = append(cmds, more...)
			}
		}
	}
	// Both the decoded solution and the broadcast view are dead now (a
	// fold copied what it needed into its delta); recycle them.
	tensor.PutVec(wk)
	in.release()
	if c.evalWait == nil {
		more, err := c.fillAsync()
		if err != nil {
			return nil, err
		}
		cmds = append(cmds, more...)
	}
	return cmds, nil
}

// WorkerLost evicts devices whose worker died (asynchronous runs): their
// in-flight work is charged as waste and aggregation continues on the
// survivors. Losing the last device fails the run.
func (c *Coordinator) WorkerLost(devices []int) ([]Command, error) {
	if !c.isAsync {
		return nil, errors.New("core: the synchronous protocol cannot continue without its workers")
	}
	for _, id := range devices {
		if id < 0 || id >= c.n || !c.live[id] {
			continue
		}
		c.live[id] = false
		c.liveDevices--
		c.idle.remove(id)
		c.emit(obs.Event{Kind: obs.KindWorkerLost, Device: id})
		if in, ok := c.pending[id]; ok {
			// The expected (budget-clamped) epochs stay charged; whatever
			// the dead worker computed is lost — waste. A dispatch whose
			// send was never confirmed carries no charges to waste.
			if in.charged {
				c.cost.WastedEpochs += in.expected
			}
			in.release()
			delete(c.pending, id)
		}
	}
	if c.liveDevices == 0 {
		return nil, errors.New("core: aggregation lost every worker")
	}
	if c.evalWait != nil {
		return nil, nil
	}
	return c.fillAsync()
}
