package experiments

import (
	"fmt"
	"math"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/tensor"
)

func init() {
	register("ext-precision", "float32 precision: same-seed f64 vs f32 runs, loss parity within 2%, raw wire traffic halved", extPrecision)
}

// extPrecision exercises Precision f32 end to end against the
// full-width reference, on Synthetic(1,1) with FedProx's tuned μ. Each
// f64/f32 pair shares seed, schedule, and hyperparameters, so the only
// difference is the arithmetic width of the device hot loop (the same
// batched kernels, prox term and γ-probe, instantiated at float32) and —
// when a codec is on — the wire encoding (raw ships 4-byte coordinates;
// qsgd quantizes in float32 with a 4-byte scale).
//
// Three pairings:
//
//   - bare: no codec, in-process views — isolates the solver arithmetic,
//   - raw wire: uncompressed transfers — the f32 run must ship ~half
//     the uplink bytes at equal round count,
//   - qsgd8 wire: quantized transfers — shows the f32 path composes
//     with the compression stack (the level stream is width-exact, so
//     the payload does not change; the solve feeding it does).
//
// Precision f32 exists to make updates smaller, not to change what is
// learned: the claims table (claims_test.go) holds every f32 final loss
// within 2% of its f64 partner's and the raw-wire f32 uplink to at most
// 1/1.9 of f64's, the bounds the f32 path was built against.
func extPrecision(o Options) *Result {
	w := o.load("synthetic")
	base := o.base(w)
	pairs := []struct {
		name string
		spec comm.Spec // zero Name = no codec
	}{
		{"bare", comm.Spec{}},
		{"raw wire", comm.Spec{Name: "raw"}},
		{"qsgd8 wire", comm.Spec{Name: "delta+qsgd", Bits: 8}},
	}
	sec := Section{Name: w.name() + " f64 vs f32"}
	for _, p := range pairs {
		cfg64 := fedprox(base, w.BestMu)
		if p.spec.Name != "" {
			cfg64.Codec = p.spec
		}
		cfg32 := cfg64
		cfg32.Precision = tensor.F32
		sec.requests = append(sec.requests,
			o.request("synthetic", cfg64).labelled(p.name+" f64 "+core.Label(cfg64)),
			o.request("synthetic", cfg32).labelled(p.name+" f32 "+core.Label(cfg32)))
	}

	return &Result{
		Title:    "Precision f32 end to end vs the float64 reference (same seed, same schedule)",
		Sections: []Section{sec},
		finish: func(res *Result) error {
			sec := &res.Sections[0]
			for i, p := range pairs {
				h64, h32 := sec.Runs[2*i], sec.Runs[2*i+1]
				l64, l32 := h64.Final().TrainLoss, h32.Final().TrainLoss
				drift := math.Abs(l32-l64) / l64
				note := fmt.Sprintf("%s: f64 loss %.4f, f32 loss %.4f (drift %.2f%%)", p.name, l64, l32, 100*drift)
				if c := h32.Final().Cost; c.UplinkBytes > 0 {
					note += fmt.Sprintf(", uplink %d KiB f64 / %d KiB f32",
						h64.Final().Cost.UplinkBytes/1024, c.UplinkBytes/1024)
				}
				sec.Notes = append(sec.Notes, note)
			}
			rawUp64, rawUp32 := sec.Runs[2].Final().Cost.UplinkBytes, sec.Runs[3].Final().Cost.UplinkBytes // raw wire
			res.Notes = append(res.Notes,
				fmt.Sprintf("raw uncompressed wire: %.2fx less uplink traffic at f32 (4-byte coordinates)",
					float64(rawUp64)/float64(rawUp32)),
				"deterministic: the same seed reproduces every number above bit for bit;")
			return nil
		},
	}
}
