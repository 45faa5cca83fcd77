package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestExtTheoryReportsConstants(t *testing.T) {
	res, err := Run("ext-theory", micro())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 4 {
		t.Fatalf("sections = %d, want 4", len(res.Sections))
	}
	for _, sec := range res.Sections {
		if len(sec.Notes) != 1 || !strings.Contains(sec.Notes[0], "measured B=") {
			t.Fatalf("section %q missing measurement note: %v", sec.Name, sec.Notes)
		}
	}
}

func TestExtSyshetEmergentStragglers(t *testing.T) {
	res, err := Run("ext-syshet", micro())
	if err != nil {
		t.Fatal(err)
	}
	sec := res.Sections[0]
	if len(sec.Runs) != 3 {
		t.Fatalf("runs = %d, want FedAvg + FedProx(0) + FedProx(best)", len(sec.Runs))
	}
	found := false
	for _, n := range sec.Notes {
		if strings.Contains(n, "emergent straggler rate") {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing straggler-rate note: %v", sec.Notes)
	}
}

func TestExtSolversAllConverge(t *testing.T) {
	o := micro()
	o.Rounds = 6
	res, err := Run("ext-solvers", o)
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Sections[0].Runs
	if len(runs) != 5 {
		t.Fatalf("runs = %d, want 5 solvers", len(runs))
	}
	labels := map[string]bool{}
	for _, h := range runs {
		labels[h.Label] = true
		if h.Final().TrainLoss != h.Final().TrainLoss {
			t.Fatalf("%s produced NaN", h.Label)
		}
		if h.Final().TrainLoss >= h.Points[0].TrainLoss {
			t.Errorf("%s made no progress: %g -> %g", h.Label, h.Points[0].TrainLoss, h.Final().TrainLoss)
		}
	}
	if len(labels) != 5 {
		t.Fatalf("labels not distinct: %v", labels)
	}
}

func TestExtCommAccounting(t *testing.T) {
	res, err := Run("ext-comm", micro())
	if err != nil {
		t.Fatal(err)
	}
	sec := res.Sections[0]
	if len(sec.Runs) != 3 || len(sec.Notes) != 3 {
		t.Fatalf("want 3 runs with 3 notes, got %d/%d", len(sec.Runs), len(sec.Notes))
	}
	avg := sec.Runs[0].Final().Cost  // FedAvg
	prox := sec.Runs[1].Final().Cost // FedProx(mu=0)
	if avg.WastedEpochs == 0 {
		t.Fatal("FedAvg at 90% stragglers wasted no epochs")
	}
	if prox.WastedEpochs != 0 {
		t.Fatalf("FedProx wasted %d epochs; aggregation wastes none", prox.WastedEpochs)
	}
	if prox.UplinkBytes <= avg.UplinkBytes {
		t.Fatal("FedProx must upload more models than dropping FedAvg")
	}
	if avg.DownlinkBytes != prox.DownlinkBytes {
		t.Fatal("both methods broadcast to the same selected devices")
	}
}

func TestExtBiasShowsClassGap(t *testing.T) {
	o := micro()
	o.Rounds = 8
	res, err := Run("ext-bias", o)
	if err != nil {
		t.Fatal(err)
	}
	sec := res.Sections[0]
	if len(sec.Runs) != 2 || len(sec.Notes) != 2 {
		t.Fatalf("want 2 runs with notes, got %d/%d", len(sec.Runs), len(sec.Notes))
	}
	if !strings.Contains(sec.Notes[0], "straggler classes 0-1") {
		t.Fatalf("missing per-class note: %v", sec.Notes)
	}
}

func TestExtNonconvexStructure(t *testing.T) {
	o := micro()
	o.Rounds = 3
	res, err := Run("ext-nonconvex", o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sections) != 2 {
		t.Fatalf("sections = %d, want 0%% and 90%%", len(res.Sections))
	}
	for _, sec := range res.Sections {
		if len(sec.Runs) != 3 {
			t.Fatalf("section %q runs = %d", sec.Name, len(sec.Runs))
		}
	}
}

func TestExtPrivacyNoiseLadder(t *testing.T) {
	o := micro()
	res, err := Run("ext-privacy", o)
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Sections[0].Runs
	if len(runs) != 4 {
		t.Fatalf("runs = %d, want 4 noise levels", len(runs))
	}
	// The noiseless run and the smallest-noise run must differ (noise is
	// actually applied) but both must complete without NaN.
	for _, h := range runs {
		if h.Final().TrainLoss != h.Final().TrainLoss {
			t.Fatalf("%s produced NaN", h.Label)
		}
	}
	if runs[0].Final().TrainLoss == runs[3].Final().TrainLoss {
		t.Fatal("largest noise level had no effect")
	}
}

func TestExtGammaMonotone(t *testing.T) {
	o := micro()
	res, err := Run("ext-gamma", o)
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Sections[0].Runs
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3 epoch budgets", len(runs))
	}
	// Gamma at E=20 must be below gamma at E=1: more work, more exact.
	g1 := runs[0].Final().MeanGamma
	g20 := runs[2].Final().MeanGamma
	if !(g20 < g1) {
		t.Fatalf("gamma not decreasing in work: E=1 %g, E=20 %g", g1, g20)
	}
}

func TestExtAsyncComparesDisciplines(t *testing.T) {
	o := micro()
	o.Rounds = 4
	res, err := Run("ext-async", o)
	if err != nil {
		t.Fatal(err)
	}
	sec := res.Sections[0]
	if len(sec.Runs) != 4 {
		t.Fatalf("runs = %d, want sync-drop/sync-partial/async/buffered", len(sec.Runs))
	}
	if len(sec.Seconds) != 4 {
		t.Fatalf("wall-clock missing: %v", sec.Seconds)
	}
	sawStale := false
	for _, h := range sec.Runs {
		if h.TracksStaleness() {
			sawStale = true
		}
	}
	if !sawStale {
		t.Fatal("no run recorded staleness")
	}
	entries := res.BenchEntries()
	if len(entries) != 4 {
		t.Fatalf("bench entries = %d, want 4", len(entries))
	}
	for _, e := range entries {
		if e.Seconds <= 0 {
			t.Fatalf("entry %s missing wall-clock: %+v", e.Method, e)
		}
	}
}

// TestExtPrecisionMicro holds ext-precision to what it states: every f32
// run ends within 2% of its same-seed f64 partner's final loss, and on the
// raw wire the f32 run moves at most 1/1.9 of the f64 run's uplink bytes.
func TestExtPrecisionMicro(t *testing.T) {
	res, err := Run("ext-precision", micro())
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Sections[0].Runs
	if len(runs) != 6 {
		t.Fatalf("runs = %d, want bare, raw wire and qsgd8 wire at f64 and f32", len(runs))
	}
	for i := 0; i < len(runs); i += 2 {
		h64, h32 := runs[i], runs[i+1]
		if !strings.Contains(h64.Label, " f64 ") || !strings.Contains(h32.Label, " f32 ") {
			t.Fatalf("pair %d is %q, %q: want f64 then f32", i/2, h64.Label, h32.Label)
		}
		l64, l32 := h64.Final().TrainLoss, h32.Final().TrainLoss
		if math.Abs(l32-l64) > 0.02*l64 {
			t.Errorf("%s: final loss %v, f64 partner %v: more than 2%% apart", h32.Label, l32, l64)
		}
	}
	up64, up32 := runs[2].Final().Cost.UplinkBytes, runs[3].Final().Cost.UplinkBytes
	if !strings.HasPrefix(runs[3].Label, "raw wire f32") || up32 <= 0 || 1.9*float64(up32) > float64(up64) {
		t.Errorf("%s moved %d uplink bytes, f64 %d: want at most 1/1.9 of it", runs[3].Label, up32, up64)
	}
}

// TestExtPartialWorkMicro holds ext-partialwork to what it states: every
// run under a device-side budget spends fewer device-epochs than the same
// schedule at full work, in process and on the virtual clock.
func TestExtPartialWorkMicro(t *testing.T) {
	res, err := Run("ext-partialwork", micro())
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Sections[0].Runs
	if len(runs) != 7 {
		t.Fatalf("runs = %d, want full work, four budget runs and the vtime pair", len(runs))
	}
	epochs := func(i int) int { return runs[i].Final().Cost.DeviceEpochs }
	for i := 1; i <= 4; i++ {
		if epochs(i) >= epochs(0) {
			t.Errorf("%s: %d device-epochs, full work %d", runs[i].Label, epochs(i), epochs(0))
		}
	}
	if epochs(6) >= epochs(5) {
		t.Errorf("%s: %d device-epochs, %s %d", runs[6].Label, epochs(6), runs[5].Label, epochs(5))
	}
}
