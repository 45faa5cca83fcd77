package experiments

import (
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
	// Only contacted devices download, and each contacted device uploads
	// once: FedAvg never contacts its dropped stragglers.
	if avg.DownlinkBytes != avg.UplinkBytes || prox.DownlinkBytes != prox.UplinkBytes {
		t.Fatalf("downloads must match uploads: FedAvg %d/%d, FedProx %d/%d",
			avg.DownlinkBytes, avg.UplinkBytes, prox.DownlinkBytes, prox.UplinkBytes)
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
	// Claim (g-gamma) holds gamma to falling with E.
	runs := res.Sections[0].Runs
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3 epoch budgets", len(runs))
	}
	for _, h := range runs {
		if g := h.Final().MeanGamma; !(g >= 0) {
			t.Fatalf("%s: mean gamma %g not tracked", h.Label, g)
		}
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

// TestExtPrecisionMicro holds ext-precision's shape: three f64/f32 pairs,
// the raw-wire pair second. Claims (i-precision-drift) and
// (i-precision-shrink) hold its numbers.
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
	}
	if !strings.HasPrefix(runs[3].Label, "raw wire f32") {
		t.Errorf("run 3 is %q, want the raw-wire f32 run", runs[3].Label)
	}
}

// TestExtPartialWorkMicro holds ext-partialwork's shape: full work, four
// budget runs and the vtime pair, each with its device-epochs counted.
// Claim (i-partialwork) holds the budget runs below full work.
func TestExtPartialWorkMicro(t *testing.T) {
	res, err := Run("ext-partialwork", micro())
	if err != nil {
		t.Fatal(err)
	}
	runs := res.Sections[0].Runs
	if len(runs) != 7 {
		t.Fatalf("runs = %d, want full work, four budget runs and the vtime pair", len(runs))
	}
	for _, h := range runs {
		if h.Final().Cost.DeviceEpochs <= 0 {
			t.Errorf("%s counted no device-epochs", h.Label)
		}
	}
}
