package core

import (
	"math"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data"
	"fedprox/internal/model"
	"fedprox/internal/model/lstm"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// TestF32RunTracksF64 runs the same seeded deployment at both widths
// and checks the f32 trajectory stays within rounding distance of the
// f64 one at every evaluation point — evaluation itself always runs at
// full width, so the losses compare like for like.
func TestF32RunTracksF64(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(6, 5, 3, 0.01, 1)
	cfg.EvalEvery = 2

	h64, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Precision = tensor.F32
	h32, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(h64.Points) != len(h32.Points) {
		t.Fatalf("point counts differ: f64 %d, f32 %d", len(h64.Points), len(h32.Points))
	}
	for i := range h64.Points {
		l64, l32 := h64.Points[i].TrainLoss, h32.Points[i].TrainLoss
		if d := math.Abs(l32-l64) / (math.Abs(l64) + 1); d > 1e-4 {
			t.Fatalf("round %d: f32 loss %.6f drifted %.2e from f64's %.6f", h64.Points[i].Round, l32, d, l64)
		}
	}
	// The nominal wire is priced at the deployment's word size.
	if up64, up32 := h64.Final().Cost.UplinkBytes, h32.Final().Cost.UplinkBytes; up32*2 != up64 {
		t.Fatalf("f32 uplink accounting %d is not half of f64's %d", up32, up64)
	}
	if wantLabel := h64.Label + " [f32]"; h32.Label != wantLabel {
		t.Fatalf("f32 label %q, want %q", h32.Label, wantLabel)
	}
}

// TestF32CodecRunConverges: the f32 path composes with the stateful
// codec chain — the run completes, improves on its starting loss, and
// stays close to the f64 run on the same quantized wire.
func TestF32CodecRunConverges(t *testing.T) {
	mdl, fed := tinyWorkload()
	cfg := FedProx(6, 5, 3, 0.01, 1)
	cfg.EvalEvery = 2
	cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}

	h64, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Precision = tensor.F32
	h32, err := Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fin64, fin32 := h64.Final().TrainLoss, h32.Final().TrainLoss
	if fin32 >= h32.Points[0].TrainLoss {
		t.Fatalf("f32 codec run did not improve: first %.4f, final %.4f", h32.Points[0].TrainLoss, fin32)
	}
	if d := math.Abs(fin32-fin64) / fin64; d > 0.02 {
		t.Fatalf("f32 codec run final loss %.4f drifted %.1f%% from f64's %.4f", fin32, 100*d, fin64)
	}
}

// TestF32ConfigRejections: every configuration the f32 path cannot
// execute is refused up front, before a device is built — precision is
// part of the negotiated wire format, so there is no silent fall back to
// f64.
func TestF32ConfigRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown precision", func(c *Config) { c.Precision = "f16" }},
		{"privacy hook", func(c *Config) {
			c.Precision = tensor.F32
			c.Privacy = &privacy.Mechanism{ClipNorm: 0.5, NoiseStd: 0.01, Seed: 1}
		}},
		{"topk uplink", func(c *Config) {
			c.Precision = tensor.F32
			c.Codec = comm.Spec{Name: "topk", TopK: 0.25}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mdl, fed := tinyWorkload()
			cfg := FedProx(4, 3, 2, 0.01, 1)
			tc.mutate(&cfg)
			if _, err := Run(mdl, fed, cfg); err == nil {
				t.Fatal("invalid f32 config accepted")
			}
		})
	}
}

// TestF32DeviceConstructorPanics: a runtime that cannot execute at float32 — a
// privacy hook, a model without a float32 gradient, a solver that
// ignores solver.Config.Precision — is refused the same way at every
// entry point, because one predicate (f32Ready) decides all four: the
// constructors panic (a programming error), InstallLinks returns the
// negotiation error, and SupportsPrecision keeps f32 out of a worker's
// Hello offer.
func TestF32DeviceConstructorPanics(t *testing.T) {
	mdl, fed := tinyWorkload()
	seq := lstm.ForDataset(&data.Federated{VocabSize: 5, NumClasses: 2}, 2, 2, 1)
	for _, tc := range []struct {
		name string
		mdl  model.Model
		opts DeviceOptions
	}{
		{"privacy hook", mdl, DeviceOptions{Privacy: &privacy.Mechanism{ClipNorm: 1, NoiseStd: 0.1, Seed: 2}}},
		{"lstm", seq, DeviceOptions{}},
		{"momentum solver", mdl, DeviceOptions{Solver: solver.MomentumSolver{Beta: 0.9}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts32 := tc.opts
			opts32.Precision = tensor.F32
			for name, build := range map[string]func(){
				"NewDevice":      func() { NewDevice(tc.mdl, fed.Shards[:1], opts32) },
				"newFleetDevice": func() { newFleetDevice(tc.mdl, fed.Fleet(), opts32) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s accepted f32", name)
						}
					}()
					build()
				}()
			}
			dev := NewDevice(tc.mdl, fed.Shards[:1], tc.opts)
			if dev.SupportsPrecision(tensor.F32) || !dev.SupportsPrecision(tensor.F64) {
				t.Error("SupportsPrecision: want f64 only")
			}
			spec := comm.Spec{Name: "raw", Precision: tensor.F32}
			if err := dev.InstallLinks(spec, spec); err == nil {
				t.Error("InstallLinks accepted f32 link specs")
			}
		})
	}
	if dev := NewDevice(mdl, fed.Shards[:1], DeviceOptions{Solver: solver.GDSolver{}}); !dev.SupportsPrecision(tensor.F32) {
		t.Error("a linear model under GD must support f32")
	}
}

// TestF32GoldenBits pins the f32 path to the bits it produced before the
// float32 twin stack was folded into width-generic bodies: the final
// loss, the mean γ and the uplink byte total of a short run with no wire,
// a raw wire and a delta+qsgd8 wire. The constants were captured at the
// last commit that carried the hand-written f32 kernels, solvers and
// codecs, so a change to an accumulation order, a conversion site or the
// rounding-stream draws of the f32 path shows here.
func TestF32GoldenBits(t *testing.T) {
	mdl, fed := tinyWorkload()
	for _, tc := range []struct {
		codec       comm.Spec
		loss, gamma uint64
		uplink      int64
	}{
		{comm.Spec{}, 0x3ff8026415f79e1c, 0x3fd6060d36349697, 73200},
		{comm.Spec{Name: "raw"}, 0x3ff8026415f79e1c, 0x3fd6060d36349697, 73200},
		{comm.Spec{Name: "delta+qsgd", Bits: 8}, 0x3ff802f82dc19ec4, 0x3fd601e469c2365e, 18420},
	} {
		cfg := FedProx(6, 5, 3, 0.01, 1)
		cfg.StragglerFraction = 0.5
		cfg.EvalEvery = 2
		cfg.TrackGamma = true
		cfg.Codec = tc.codec
		cfg.Precision = tensor.F32
		h, err := Run(mdl, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := h.Final()
		if got := math.Float64bits(f.TrainLoss); got != tc.loss {
			t.Errorf("%v: final loss %v (%#x), want bits %#x", tc.codec, f.TrainLoss, got, tc.loss)
		}
		if got := math.Float64bits(f.MeanGamma); got != tc.gamma {
			t.Errorf("%v: mean gamma %v (%#x), want bits %#x", tc.codec, f.MeanGamma, got, tc.gamma)
		}
		if f.Cost.UplinkBytes != tc.uplink {
			t.Errorf("%v: uplink %d bytes, want %d", tc.codec, f.Cost.UplinkBytes, tc.uplink)
		}
	}
}
