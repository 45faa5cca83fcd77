package checkpoint

import (
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
)

// TestResumeMatchesUninterruptedRun is the integration guarantee: running
// 10 rounds straight equals running 5 rounds, "crashing", and resuming
// from the checkpoint for 5 more — bit for bit on the final loss.
func TestResumeMatchesUninterruptedRun(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	base := core.FedProx(10, 5, 3, 0.01, 1)
	base.EvalEvery = 5

	straight, err := core.Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: first 5 rounds, then "crash".
	ck := &gobCheckpointer{}
	half := base
	half.Rounds = 5
	half.Checkpointer = ck
	if _, err := core.Run(mdl, fed, half); err != nil {
		t.Fatal(err)
	}

	// Phase 2: resume to the full 10 rounds.
	full := base
	full.Checkpointer = ck
	resumed, err := core.Run(mdl, fed, full)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := resumed.Final().TrainLoss, straight.Final().TrainLoss; got != want {
		t.Fatalf("resumed final loss %.17g != straight %.17g", got, want)
	}
	if got, want := resumed.Final().Round, straight.Final().Round; got != want {
		t.Fatalf("resumed final round %d != %d", got, want)
	}
	if len(resumed.Points) != len(straight.Points) {
		t.Fatalf("resumed history has %d points, straight %d", len(resumed.Points), len(straight.Points))
	}
}

// TestResumeRejectsWrongFingerprint: a snapshot names the run that saved
// it, and a run under another label refuses it by name rather than
// silently training on.
func TestResumeRejectsWrongFingerprint(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(4, 5, 2, 0.01, 1)
	cfg.EvalEvery = 2
	ck := &gobCheckpointer{}
	cfg.Checkpointer = ck
	if _, err := core.Run(mdl, fed, cfg); err != nil {
		t.Fatal(err)
	}
	wrong := core.FedAvg(4, 5, 2, 0.01)
	wrong.EvalEvery = 2
	wrong.Checkpointer = ck
	if _, err := core.Run(mdl, fed, wrong); err == nil || !strings.Contains(err.Error(), `this is "FedAvg"`) {
		t.Fatalf("want another run's snapshot refused, got %v", err)
	}
}

func TestFreshRunWithCheckpointerStartsAtZero(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(3, 5, 2, 0.01, 0)
	cfg.Checkpointer = &gobCheckpointer{}
	h, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Points[0].Round != 0 {
		t.Fatalf("fresh run did not record round 0: %+v", h.Points[0])
	}
}

// TestCompletedRunResumesAsNoOp: resuming a finished run returns the
// saved history without executing any rounds.
func TestCompletedRunResumesAsNoOp(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(4, 5, 2, 0.01, 0)
	cfg.EvalEvery = 2
	cfg.Checkpointer = &gobCheckpointer{}
	first, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	again, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Final().TrainLoss != first.Final().TrainLoss {
		t.Fatal("no-op resume changed the final loss")
	}
	if len(again.Points) != len(first.Points) {
		t.Fatalf("no-op resume history %d points, want %d", len(again.Points), len(first.Points))
	}
}

// TestCodecResumeMatchesUninterruptedRun is the link-state checkpoint
// guarantee: codec runs carry rounding-stream positions, error-feedback
// residuals, and broadcast shadows in the checkpoint, so a crash-resume
// cycle reproduces the uninterrupted compressed trajectory bit for bit.
func TestCodecResumeMatchesUninterruptedRun(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	for _, spec := range []comm.Spec{
		{Name: "qsgd", Bits: 8},    // stochastic rounding streams
		{Name: "topk", TopK: 0.25}, // error-feedback residuals
		{Name: "delta"},            // chained broadcast shadows
	} {
		t.Run(spec.Name, func(t *testing.T) {
			base := core.FedProx(10, 5, 3, 0.01, 1)
			base.EvalEvery = 5
			base.Codec = spec
			if spec.Name == "topk" {
				base.DownlinkCodec = comm.Spec{Name: "raw"}
			}

			straight, err := core.Run(mdl, fed, base)
			if err != nil {
				t.Fatal(err)
			}
			ck := &gobCheckpointer{}
			half := base
			half.Rounds = 5
			half.Checkpointer = ck
			if _, err := core.Run(mdl, fed, half); err != nil {
				t.Fatal(err)
			}
			full := base
			full.Checkpointer = ck
			resumed, err := core.Run(mdl, fed, full)
			if err != nil {
				t.Fatal(err)
			}

			if len(resumed.Points) != len(straight.Points) {
				t.Fatalf("resumed history has %d points, straight %d", len(resumed.Points), len(straight.Points))
			}
			for i := range straight.Points {
				sp, rp := straight.Points[i], resumed.Points[i]
				if sp.TrainLoss != rp.TrainLoss || sp.TestAcc != rp.TestAcc {
					t.Fatalf("round %d: resumed (%.17g, %g) != straight (%.17g, %g)",
						sp.Round, rp.TrainLoss, rp.TestAcc, sp.TrainLoss, sp.TestAcc)
				}
			}
			// The byte accounting must survive the crash too: the final
			// cumulative counters coincide because the resumed run
			// replays neither transfers nor charges.
			if resumed.Final().Cost != straight.Final().Cost {
				t.Fatalf("resumed cost %+v != straight %+v", resumed.Final().Cost, straight.Final().Cost)
			}
		})
	}
}

// TestCodecRefusesLinklessCheckpoint: a codec run resumed from a snapshot
// stripped of the coordinator's link state fails instead of restarting
// its rounding streams and residuals from scratch.
func TestCodecRefusesLinklessCheckpoint(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	base := core.FedProx(6, 5, 2, 0.01, 1)
	base.EvalEvery = 3
	base.Codec = comm.Spec{Name: "qsgd", Bits: 8}

	ck := &gobCheckpointer{}
	half := base
	half.Rounds = 3
	half.Checkpointer = ck
	if _, err := core.Run(mdl, fed, half); err != nil {
		t.Fatal(err)
	}
	// Strip the coordinator's link state.
	snap, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	snap.Links = nil
	if err := ck.Save(snap); err != nil {
		t.Fatal(err)
	}
	full := base
	full.Checkpointer = ck
	if _, err := core.Run(mdl, fed, full); err == nil {
		t.Fatal("codec run resumed from a checkpoint without link state")
	}
}

// TestAdaptiveMuResumeMatchesUninterruptedRun: the adaptive-mu
// controller's state (current mu, loss memory, decrease streak) rides in
// the coordinator checkpoint, so a crash-resume cycle reproduces the
// uninterrupted adaptive trajectory bit for bit — and a snapshot without
// that state is refused rather than restarting the controller at Mu.
func TestAdaptiveMuResumeMatchesUninterruptedRun(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	base := core.FedProx(10, 5, 3, 0.01, 1)
	base.EvalEvery = 5
	base.AdaptiveMu = true
	base.MuStep = 0.5
	base.MuPatience = 1 // aggressive controller so divergence would show

	straight, err := core.Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}
	ck := &gobCheckpointer{}
	half := base
	half.Rounds = 5
	half.Checkpointer = ck
	if _, err := core.Run(mdl, fed, half); err != nil {
		t.Fatal(err)
	}
	full := base
	full.Checkpointer = ck
	resumed, err := core.Run(mdl, fed, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Points) != len(straight.Points) {
		t.Fatalf("resumed history has %d points, straight %d", len(resumed.Points), len(straight.Points))
	}
	for i := range straight.Points {
		sp, rp := straight.Points[i], resumed.Points[i]
		if sp.TrainLoss != rp.TrainLoss || sp.Mu != rp.Mu {
			t.Fatalf("round %d: resumed (loss %.17g, mu %g) != straight (loss %.17g, mu %g)",
				sp.Round, rp.TrainLoss, rp.Mu, sp.TrainLoss, sp.Mu)
		}
	}

	ck = &gobCheckpointer{}
	half.Checkpointer = ck
	if _, err := core.Run(mdl, fed, half); err != nil {
		t.Fatal(err)
	}
	s, err := ck.Load()
	if err != nil {
		t.Fatal(err)
	}
	s.AdaptiveMu = nil
	if err := ck.Save(s); err != nil {
		t.Fatal(err)
	}
	full.Checkpointer = ck
	if _, err := core.Run(mdl, fed, full); err == nil || !strings.Contains(err.Error(), "no adaptive-mu state") {
		t.Fatalf("want a %q refusal, got %v", "no adaptive-mu state", err)
	}
}
