package core

import (
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
)

// TestRawCodecMatchesUncompressed is half of the subsystem's defining
// guarantee: the raw codec is a pure pass-through, so enabling it must
// reproduce the no-codec trajectory bit for bit — and the byte and epoch
// accounting too, evaluation broadcasts included (Cost's one rule).
func TestRawCodecMatchesUncompressed(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.15))
	mdl := linear.ForDataset(fed)

	base := FedProx(12, 8, 5, 0.01, 1)
	base.StragglerFraction = 0.5
	base.EvalEvery = 3

	plain, err := Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}
	coded := base
	coded.Codec = comm.Spec{Name: "raw"}
	withRaw, err := Run(mdl, fed, coded)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain.Points) != len(withRaw.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(plain.Points), len(withRaw.Points))
	}
	for i := range plain.Points {
		p, q := plain.Points[i], withRaw.Points[i]
		if p.TrainLoss != q.TrainLoss {
			t.Fatalf("round %d: loss %.17g != %.17g", p.Round, p.TrainLoss, q.TrainLoss)
		}
		if p.TestAcc != q.TestAcc {
			t.Fatalf("round %d: acc %g != %g", p.Round, p.TestAcc, q.TestAcc)
		}
		if p.Participants != q.Participants {
			t.Fatalf("round %d: participants %d != %d", p.Round, p.Participants, q.Participants)
		}
		// Every point follows at least one evaluation broadcast, which
		// both runs bill.
		pc, qc := p.Cost, q.Cost
		if pc.EvalBytes == 0 {
			t.Fatalf("round %d: uncoded run billed no eval bytes: %+v", p.Round, pc)
		}
		if pc != qc {
			t.Fatalf("round %d: cost %+v != %+v", p.Round, pc, qc)
		}
	}
}

// TestRawCodecMatchesUnderDrop covers the DropStragglers corner: neither
// run contacts a dropped straggler, and both charge its planned epochs as
// wasted, so the trajectory (loss/accuracy/participants) and the Cost
// must match.
func TestRawCodecMatchesUnderDrop(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.15))
	mdl := linear.ForDataset(fed)

	base := FedAvg(10, 8, 5, 0.01)
	base.StragglerFraction = 0.9
	base.EvalEvery = 2

	plain, err := Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}
	coded := base
	coded.Codec = comm.Spec{Name: "raw"}
	withRaw, err := Run(mdl, fed, coded)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Points {
		p, q := plain.Points[i], withRaw.Points[i]
		if p.TrainLoss != q.TrainLoss || p.TestAcc != q.TestAcc || p.Participants != q.Participants {
			t.Fatalf("round %d diverged: %+v vs %+v", p.Round, p, q)
		}
	}
	fp, fq := plain.Final().Cost, withRaw.Final().Cost
	if fp.WastedEpochs == 0 {
		t.Fatal("FedAvg at 90% stragglers wasted no epochs")
	}
	if fp != fq {
		t.Fatalf("cost under drop: uncoded %+v != raw %+v", fp, fq)
	}
}

// TestLossyCodecsCompressWithoutDivergence is the other half of the
// acceptance bar: on the synthetic workload, qsgd and topk must cut
// recorded uplink bytes by at least 4x while landing within 10% of the
// uncompressed final training loss.
func TestLossyCodecsCompressWithoutDivergence(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.15))
	mdl := linear.ForDataset(fed)

	base := FedProx(30, 10, 10, 0.01, 1)
	base.StragglerFraction = 0.5
	base.EvalEvery = 10

	ref, err := Run(mdl, fed, base)
	if err != nil {
		t.Fatal(err)
	}
	refLoss := ref.Final().TrainLoss
	refUp := ref.Final().Cost.UplinkBytes

	cases := []struct {
		codec, down comm.Spec
	}{
		// qsgd tolerates both directions; topk must ride over a dense
		// broadcast (sparsifying the chained downlink starves devices of
		// coordinate updates), the asymmetric shape real deployments use.
		{codec: comm.Spec{Name: "qsgd", Bits: 8}},
		{codec: comm.Spec{Name: "delta+qsgd", Bits: 8}},
		{codec: comm.Spec{Name: "topk", TopK: 0.1}, down: comm.Spec{Name: "raw"}},
	}
	for _, tc := range cases {
		t.Run(tc.codec.String(), func(t *testing.T) {
			cfg := base
			cfg.Codec = tc.codec
			cfg.DownlinkCodec = tc.down
			h, err := Run(mdl, fed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			up := h.Final().Cost.UplinkBytes
			if ratio := float64(refUp) / float64(up); ratio < 4 {
				t.Errorf("uplink compression %.2fx < 4x (%d vs %d bytes)", ratio, up, refUp)
			}
			loss := h.Final().TrainLoss
			if rel := (loss - refLoss) / refLoss; rel > 0.10 {
				t.Errorf("final loss %.4f is %.1f%% above uncompressed %.4f (budget 10%%)",
					loss, 100*rel, refLoss)
			}
		})
	}
}

// TestCodecAcceptsCheckpointing: link state (residuals, rounding
// streams, broadcast shadows) rides the coordinator's Snapshot, so
// synchronous codec runs may checkpoint (internal/checkpoint's resume
// tests hold them to the uninterrupted run).
func TestCodecAcceptsCheckpointing(t *testing.T) {
	cfg := FedProx(2, 2, 1, 0.01, 1)
	cfg.Codec = comm.Spec{Name: "qsgd"}
	cfg.Checkpointer = &nopCheckpointer{}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("codec + checkpointer rejected: %v", err)
	}
}

type nopCheckpointer struct{}

func (nopCheckpointer) Load() (*Snapshot, error) { return nil, nil }
func (nopCheckpointer) Save(*Snapshot) error     { return nil }
