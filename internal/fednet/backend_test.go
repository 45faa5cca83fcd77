package fednet

import (
	"errors"
	"math"
	"strings"
	"testing"

	"fedprox/internal/core"
)

// TestWireBackendsRejectClockAndLoss: the commands no wire executor can
// run come back from core.Drive as an error naming the backend and the
// command — they are never skipped.
func TestWireBackendsRejectClockAndLoss(t *testing.T) {
	for _, b := range []core.Backend{&wireBackend{}} {
		for _, cmd := range []core.Command{core.AdvanceClock{Seconds: 1}, core.ObserveLoss{}} {
			_, err := core.Drive(nil, b, []core.Command{cmd, core.Done{}})
			if !errors.Is(err, errors.ErrUnsupported) {
				t.Fatalf("%T on %T: err = %v, want ErrUnsupported", cmd, b, err)
			}
			if !strings.Contains(err.Error(), "fednet.") || !strings.Contains(err.Error(), "core.") {
				t.Errorf("%T on %T: error %q does not name both", cmd, b, err)
			}
		}
	}
}

// TestCombineEvalsRescalesOnlyMissingRows pins the rule that keeps a
// synchronous run's loss on the simulator's bits: a full roster is summed
// with its weights as they are, although they add up to 1 only to within
// an ulp, and only a roster with rows missing is divided by the mass that
// reported.
func TestCombineEvalsRescalesOnlyMissingRows(t *testing.T) {
	sizes := []float64{9, 28, 66, 129, 250, 13, 38, 55} // p_k sum to 1 - 1 ulp
	total := 0.0
	for _, n := range sizes {
		total += n
	}
	weights := make([]float64, len(sizes))
	rows := make([]DeviceEval, len(sizes))
	for k, n := range sizes {
		weights[k] = n / total
		rows[k] = DeviceEval{Device: k, TrainLoss: 0.3 + float64(k)}
	}
	sum := func(rows []DeviceEval) (loss, mass float64) {
		for _, ev := range rows {
			loss += weights[ev.Device] * ev.TrainLoss
			mass += weights[ev.Device]
		}
		return loss, mass
	}
	want, mass := sum(rows)
	if mass == 1 || want/mass == want {
		t.Fatalf("fixture cannot tell: the weights sum to %v and rescaling is a no-op", mass)
	}
	if got, _ := combineEvals(rows, weights); math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("full roster: loss %.17g, want the plain weighted sum %.17g (rescaled would be %.17g)", got, want, want/mass)
	}
	part, mass := sum(rows[1:])
	if got, _ := combineEvals(rows[1:], weights); math.Float64bits(got) != math.Float64bits(part/mass) {
		t.Errorf("row missing: loss %.17g, want %.17g rescaled by the reporting mass %v", got, part/mass, mass)
	}
}
