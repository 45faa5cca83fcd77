package experiments

import (
	"fmt"

	"fedprox/internal/comm"
)

func init() {
	register("ext-codecs", "accuracy vs bytes: model-update codecs on Synthetic(1,1)", extCodecs)
}

// extCodecs sweeps the internal/comm codecs over the paper's main
// synthetic workload and reports the accuracy-vs-bytes frontier: the
// systems question FedProx's setting poses (communication as the
// dominant cost) that the paper's figures leave implicit. All runs share
// the environment seed, so differences are attributable to the codec
// alone.
func extCodecs(o Options) *Result {
	w := o.load("synthetic")
	base := o.base(w)
	base.StragglerFraction = 0.5

	sweep := []struct {
		codec comm.Spec
		down  comm.Spec
	}{
		{codec: comm.Spec{Name: "raw"}},
		{codec: comm.Spec{Name: "delta"}},
		{codec: comm.Spec{Name: "qsgd", Bits: 8}},
		{codec: comm.Spec{Name: "qsgd", Bits: 4}},
		{codec: comm.Spec{Name: "delta+qsgd", Bits: 8}},
		// topk rides over a dense broadcast: sparsifying the chained
		// downlink starves devices of coordinate updates.
		{codec: comm.Spec{Name: "topk", TopK: 0.1}, down: comm.Spec{Name: "raw"}},
	}
	sec := Section{Name: w.name() + " 50% stragglers"}
	for _, sw := range sweep {
		cfg := fedprox(base, w.BestMu)
		cfg.Codec = sw.codec
		cfg.DownlinkCodec = sw.down
		sec.requests = append(sec.requests, o.request("synthetic", cfg))
	}

	return &Result{
		Title:    "update codecs: uplink/downlink bytes vs convergence at 50% stragglers",
		Sections: []Section{sec},
		finish: func(res *Result) error {
			sec := &res.Sections[0]
			rawUp := sec.Runs[0].Final().Cost.UplinkBytes // the raw codec's
			for _, h := range sec.Runs {
				c := h.Final().Cost
				ratio := "1.0x"
				if rawUp > 0 && c.UplinkBytes > 0 {
					ratio = fmt.Sprintf("%.1fx", float64(rawUp)/float64(c.UplinkBytes))
				}
				sec.Notes = append(sec.Notes, fmt.Sprintf(
					"%-28s up=%6.1fKB (%s less) down=%6.1fKB final-loss=%.4f best-acc=%.4f",
					h.Label, float64(c.UplinkBytes)/1024, ratio, float64(c.DownlinkBytes)/1024,
					h.Final().TrainLoss, h.BestAccuracy()))
			}
			return nil
		},
	}
}
