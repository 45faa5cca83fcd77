package fednet

import (
	"errors"
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
