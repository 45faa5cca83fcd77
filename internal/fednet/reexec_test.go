package fednet

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
)

// reexecution re-executes a recorded run from its tape (core.Reexecute)
// and returns nil when it reproduces h bit for bit: the label, the final
// parameters, and every point's loss and accuracy — every field but the
// transport's measured bytes when all is set.
func reexecution(mdl model.Model, fed *data.Federated, cfg core.Config, h *core.History, tape []obs.Event, all bool) error {
	cfg.Trace = nil
	r, err := core.Reexecute(mdl, fed.Fleet(), cfg, tape)
	if err != nil {
		return err
	}
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	switch {
	case r.Label != h.Label:
		return fmt.Errorf("re-executed %q, recorded %q", r.Label, h.Label)
	case len(r.Points) != len(h.Points):
		return fmt.Errorf("re-executed %d points, recorded %d", len(r.Points), len(h.Points))
	case !same(r.FinalParams, h.FinalParams):
		return errors.New("final parameters differ")
	}
	for i, p := range h.Points {
		q := r.Points[i]
		p.Cost.WireUplinkBytes, p.Cost.WireDownlinkBytes = 0, 0
		if (all && fmt.Sprint(p) != fmt.Sprint(q)) || !same([]float64{p.TrainLoss, p.TestAcc}, []float64{q.TrainLoss, q.TestAcc}) {
			return fmt.Errorf("point %d: re-executed %+v, recorded %+v", i, q, p)
		}
	}
	return nil
}

// TestAsyncReexecutes: an asynchronous run over real sockets folds its
// replies in an arrival order no seed decides, and its trace is the tape
// that order is read back from. Twenty loopback runs each of AsyncTotal
// and Buffered K=3 under a 10x straggler worker re-execute from their
// traces bit for bit: label, final parameters and every point but the
// transport's measured bytes. How many distinct reply orders the runs
// saw is logged, not asserted — the scheduler decides it. The test is
// not vacuous: two adjacent replies of different devices swapped on an
// AsyncTotal tape fail, because each AsyncTotal reply is a fold of its
// own, damped by a staleness the other reply's fold changes.
func TestAsyncReexecutes(t *testing.T) {
	fed, mdl := testWorkload()
	const delay = time.Millisecond
	solvers := []solver.LocalSolver{
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: 10 * delay},
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: delay},
		solver.Delayed{Inner: solver.SGDSolver{}, Delay: delay},
	}
	for _, mode := range []core.AggregationMode{core.AsyncTotal, core.Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			cfg := asyncBase(mode)
			if mode == core.Buffered {
				cfg.Async.BufferK = 3
			}
			orders := map[string]bool{}
			var tape obs.Tape
			var h *core.History
			for run := 0; run < 20; run++ {
				tape = nil
				rec := cfg
				rec.Trace = &tape
				var err error
				if h, err = RunLoopback(mdl, fed, ServerConfig{Training: rec, ExpectDevices: fed.NumDevices()}, solvers); err != nil {
					t.Fatal(err)
				}
				if err := reexecution(mdl, fed, cfg, h, tape, true); err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				order := ""
				for _, e := range tape {
					if e.Kind == obs.KindReply {
						order += fmt.Sprintf("%d/%d ", e.Device, e.Seq)
					}
				}
				orders[order] = true
			}
			t.Logf("%s: %d distinct reply orders in 20 runs", mode, len(orders))
			if mode != core.AsyncTotal {
				return
			}
			prev := -1
			for i, e := range tape {
				if e.Kind != obs.KindReply && e.Kind != obs.KindEval {
					continue
				}
				if prev >= 0 && e.Kind == obs.KindReply && tape[prev].Kind == obs.KindReply && e.Device != tape[prev].Device {
					swapped := slices.Clone(tape)
					swapped[prev], swapped[i] = tape[i], tape[prev]
					err := reexecution(mdl, fed, cfg, h, swapped, true)
					if err == nil {
						t.Fatalf("tape with events %d and %d swapped re-executed bit-identical", prev, i)
					}
					t.Logf("events %d and %d swapped: %v", prev, i, err)
					return
				}
				prev = i
			}
			t.Fatal("no two adjacent replies of different devices on the tape")
		})
	}
}
