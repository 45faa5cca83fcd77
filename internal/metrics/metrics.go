// Package metrics evaluates the quantities the paper reports: the global
// objective f(w) (training loss), testing accuracy, and the gradient-
// variance dissimilarity measure that tracks the B-local dissimilarity of
// Definition 3.
//
// All quantities are exact sums over every device in the network (not just
// the sampled subset), matching "we report all metrics based on the global
// objective f(w)" (Section 5.1). Evaluation fans out across shards on
// tensor.ParallelFor at GOMAXPROCS, the calling goroutine among the
// workers, because it is by far the most expensive part of a simulated
// round. Every floating-point sum runs in ascending device order after the
// fan-out, so the results are bit-identical at any worker count.
//
// Every metric is defined over a data.Fleet, the lazy population view:
// workers materialize a shard, measure it, and release it, so peak memory
// during evaluation is O(workers × shard), not O(population) — the
// property that lets a 10^6-device run afford its milestone evaluations.
// A *data.Federated is measured through its eager Fleet adapter.
//
// An evaluation is one visit per shard: on a lazy fleet a visit is a
// shard synthesis, the dominant cost, so FleetEval measures loss and
// accuracy in the same visit and ShardEval is the one per-shard kernel
// every evaluator (in-process and wire) runs. FleetLoss and
// FleetAccuracy remain for callers that need one quantity alone.
package metrics

import (
	"math"
	"slices"
	"sync"

	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// FleetLoss returns f(w) = Σ_k p_k F_k(w) with p_k = n_k/n over local
// training sets. Shards of a lazy fleet are materialized, measured, and
// released one at a time per worker. The weighted sum is
// accumulated in ascending device order, so the result is bit-identical
// across worker counts and to the eager path.
func FleetLoss(m model.Model, fl data.Fleet, w []float64) float64 {
	losses := make([]float64, fl.NumDevices())
	tensor.ParallelFor(len(losses), 0, func(k int) {
		s := fl.Shard(k)
		losses[k] = m.Loss(w, s.Train)
		fl.Release(s)
	})
	n, total := 0, 0.0
	for k := range losses {
		n += fl.TrainSize(k)
	}
	for k, l := range losses {
		total += float64(fl.TrainSize(k)) / float64(n) * l
	}
	return total
}

// ShardEval measures one shard at w: the mean training loss F_k(w) and
// the number of correctly predicted test examples. It is the body every
// evaluator runs per device — FleetEval in process, core.Device.HandleEval
// behind the wire — so the two cannot drift.
func ShardEval(m model.Model, w []float64, s *data.Shard) (loss float64, correct int) {
	return m.Loss(w, s.Train), countCorrect(m, w, s.Test)
}

// labelBufs recycles the label buffers Predict writes into, so scoring a
// shard allocates nothing once the pool holds a buffer per worker.
var labelBufs = sync.Pool{New: func() any { return new([]int) }}

// eachPrediction calls visit with each example of test and m's label for
// it, from one Predict call into a pooled buffer.
func eachPrediction(m model.Model, w []float64, test []data.Example, visit func(ex data.Example, y int)) {
	box := labelBufs.Get().(*[]int)
	labels := slices.Grow((*box)[:0], len(test))[:len(test)]
	m.Predict(w, test, labels)
	for e, y := range labels {
		visit(test[e], y)
	}
	*box = labels
	labelBufs.Put(box)
}

// countCorrect is the number of examples of test that m labels right.
func countCorrect(m model.Model, w []float64, test []data.Example) (correct int) {
	eachPrediction(m, w, test, func(ex data.Example, y int) {
		if y == ex.Y {
			correct++
		}
	})
	return correct
}

// FleetEval is FleetLoss and FleetAccuracy fused into one visit per
// shard: each device is materialized once, measured by ShardEval, and
// released. The weighted loss is summed in ascending device order and the
// accuracy is total correct over total test examples, so both results are
// bit-identical to the separate passes at any worker count.
func FleetEval(m model.Model, fl data.Fleet, w []float64) (loss, acc float64) {
	// Each device writes only its own slot, shared with another worker's
	// only at a block's edge. The slots are summed afterwards, each loss
	// weighted by p_k = n_k/n computed in place.
	rows := make([]struct {
		loss          float64
		correct, test int32
	}, fl.NumDevices())
	tensor.ParallelFor(len(rows), 0, func(k int) {
		s := fl.Shard(k)
		l, c := ShardEval(m, w, s)
		rows[k].loss, rows[k].correct, rows[k].test = l, int32(c), int32(len(s.Test))
		fl.Release(s)
	})
	n, correct, total := 0, 0, 0
	for k := range rows {
		n += fl.TrainSize(k)
	}
	for k, r := range rows {
		loss += float64(fl.TrainSize(k)) / float64(n) * r.loss
		correct += int(r.correct)
		total += int(r.test)
	}
	if total == 0 {
		return loss, 0
	}
	return loss, float64(correct) / float64(total)
}

// FleetAccuracy returns the network-wide test accuracy: total correct
// predictions over total test examples across every device.
func FleetAccuracy(m model.Model, fl data.Fleet, w []float64) float64 {
	n := fl.NumDevices()
	correct := make([]int, n)
	counts := make([]int, n)
	tensor.ParallelFor(n, 0, func(k int) {
		s := fl.Shard(k)
		correct[k] = countCorrect(m, w, s.Test)
		counts[k] = len(s.Test)
		fl.Release(s)
	})
	c, total := 0, 0
	for k := range correct {
		c += correct[k]
		total += counts[k]
	}
	if total == 0 {
		return 0
	}
	return float64(c) / float64(total)
}

// PerClassAccuracy returns test accuracy broken down by true label, plus
// per-class test counts. It is the instrument for the paper's bias claim:
// dropping stragglers "may induce bias in the device sampling procedure if
// the dropped devices have specific data characteristics" (Section 2) —
// visible as depressed accuracy on exactly the classes the dropped
// devices hold.
func PerClassAccuracy(m model.Model, fed *data.Federated, w []float64) (acc []float64, counts []int) {
	classes := fed.NumClasses
	correct := make([][]int, len(fed.Shards))
	total := make([][]int, len(fed.Shards))
	tensor.ParallelFor(len(fed.Shards), 0, func(k int) {
		c := make([]int, classes)
		n := make([]int, classes)
		eachPrediction(m, w, fed.Shards[k].Test, func(ex data.Example, y int) {
			n[ex.Y]++
			if y == ex.Y {
				c[y]++
			}
		})
		correct[k], total[k] = c, n
	})
	acc = make([]float64, classes)
	counts = make([]int, classes)
	sums := make([]int, classes)
	for k := range correct {
		for c := 0; c < classes; c++ {
			sums[c] += correct[k][c]
			counts[c] += total[k][c]
		}
	}
	for c := 0; c < classes; c++ {
		if counts[c] > 0 {
			acc[c] = float64(sums[c]) / float64(counts[c])
		}
	}
	return acc, counts
}

// FleetDissimilarity returns the gradient variance E_k‖∇F_k(w) − ∇f(w)‖² (E_k
// weighted by p_k = n_k/n), the empirical dissimilarity measure the paper
// plots (Figures 2, 6, 8, 12) and a lower bound on the B-dissimilarity
// via Corollary 10, and the B(w) estimate of Definition 3,
//
//	B(w) = sqrt( E_k‖∇F_k(w)‖² / ‖∇f(w)‖² ),
//
// with B(w) defined as 1 at points where the two coincide (the paper's
// stationarity convention) and 0 reported when ‖∇f(w)‖ is numerically
// zero without agreement.
//
// Shards are transient, but the per-device gradients are not: ∇f(w)
// needs every ∇F_k(w), so this holds O(N × params) floats and is meant
// for the tracked-dissimilarity configurations (tens to hundreds of
// devices), not million-device sweeps — which reject TrackGamma anyway.
func FleetDissimilarity(m model.Model, fl data.Fleet, w []float64) (variance, b float64) {
	grads := make([][]float64, fl.NumDevices())
	tensor.ParallelFor(len(grads), 0, func(k int) {
		g := make([]float64, m.NumParams())
		s := fl.Shard(k)
		m.Grad(g, w, s.Train)
		fl.Release(s)
		grads[k] = g
	})
	n := 0
	for k := range grads {
		n += fl.TrainSize(k)
	}
	p := func(k int) float64 { return float64(fl.TrainSize(k)) / float64(n) }
	// ∇f(w) = Σ p_k ∇F_k(w).
	gf := make([]float64, m.NumParams())
	for k, g := range grads {
		tensor.Axpy(p(k), g, gf)
	}
	normF2 := tensor.Dot(gf, gf)
	exp2 := 0.0 // E_k‖∇F_k‖²
	for k, g := range grads {
		exp2 += p(k) * tensor.Dot(g, g)
		variance += p(k) * tensor.SqDist(g, gf)
	}
	const eps = 1e-18
	switch {
	case exp2-normF2 < eps && normF2 < eps:
		b = 1 // stationary point all devices agree on
	case normF2 < eps:
		b = 0 // undefined; report 0 rather than +Inf
	default:
		b = math.Sqrt(exp2 / normF2)
	}
	return variance, b
}
