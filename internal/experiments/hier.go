package experiments

import (
	"fmt"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
	"fedprox/internal/tier"
	"fedprox/internal/vtime"
)

func init() {
	register("ext-hier", "hierarchical aggregation: edge tiers fold device replies before the root, at equal device count and work", finishOnly(extHier))
}

// The ext-hier cohort: 64 devices per window, divisible by every swept
// fan-out (and by 32^1, the deepest width the sweep uses).
const hierClientsPerRound = 64

// hierFanOuts is the swept tree shape: flat (fan-out 1 disables the
// hierarchy) against one-tier trees of 8 and 32 devices per edge.
var hierFanOuts = [...]int{1, 8, 32}

// extHier measures what edge aggregation buys at fixed statistical
// work: every run contacts the same 64-device cohort per round over the
// same large fleet with the same seed, but a tiered run folds each
// edge's replies before they cross the backbone, so the root ingests
// K/F edge replies instead of K device replies. The sweep runs
// fan-outs {1 (flat), 8, 32} twice — raw wire and per-hop qsgd links —
// under virtual time: device legs on the access network (10x-slow 10%
// tail), aggregator legs on a faster backbone, so the virtual
// wall-clock shows what the extra hop costs while the root's ingress
// bytes show what the fold saves. The claims table (claims_test.go)
// judges the payoff: at least 4x less root ingress at fan-out 32 than
// flat, at a final loss within 5% of flat's.
func extHier(o Options, res *Result) error {
	devices := int(100000 * o.Scale)
	if devices < 8*hierClientsPerRound {
		devices = 8 * hierClientsPerRound
	}
	// The recipe of the scale test (scale_test.go): a narrow model and
	// small shards keep the two full-fleet evaluations (round 0 and
	// final) proportionate, while the fleet stays lazy — shards exist
	// only while a dispatch or an evaluation reads them.
	sc := synthetic.Config{
		Alpha: 1, Beta: 1,
		Devices:    devices,
		Dim:        10,
		Classes:    5,
		MinSamples: 10,
		MaxSamples: 20,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       o.Seed + 11,
	}
	fl := synthetic.NewFleet(sc)
	mdl := linear.New(sc.Dim, sc.Classes)

	deviceLegs := vtime.MustModel(
		vtime.UniformCompute{SecondsPerEpoch: 0.05, Speed: vtime.SlowTail(devices, vtimeTailFrac, vtimeSlowFactor)},
		vtimeNet,
		o.Seed+101,
	)
	// The backbone the aggregator legs ride: better provisioned and
	// steadier than the device access network, as edge deployments are.
	backboneNet := vtime.Net{UplinkBps: 2e7, DownlinkBps: 2e7, Latency: 0.005, JitterStd: 0.05}
	if o.TierLatency > 0 {
		backboneNet.Latency = o.TierLatency
	}
	backbone := vtime.MustModel(vtime.UniformCompute{}, backboneNet, o.Seed+211)

	fans := hierFanOuts[:]
	if o.TierFanOut > 1 {
		fans = []int{1, o.TierFanOut}
	}
	deepest := fans[len(fans)-1]

	base := core.FedProx(o.Rounds, hierClientsPerRound, o.LocalEpochs, 0.01, 1)
	base.EvalEvery = o.Rounds // full-fleet measurement at round 0 and the end
	base.Seed = o.Seed
	base.Trace = o.Trace
	base.VTime = core.VTimeConfig{Model: deviceLegs}

	res.Title = fmt.Sprintf("hierarchical aggregation over %d devices (%d-device windows, fan-outs %v)",
		devices, hierClientsPerRound, fans)
	for _, codec := range []struct {
		name string
		spec comm.Spec
	}{
		{"raw wire", comm.Spec{}},
		{"qsgd links", comm.Spec{Name: "qsgd", Bits: 8}},
	} {
		sec := Section{Name: fmt.Sprintf("synthetic(1,1) x %d + %s", devices, codec.name)}
		for _, fan := range fans {
			cfg := base
			cfg.Codec = codec.spec
			topo := tier.Topology{FanOut: fan, Depth: 1, Model: backbone}
			start := time.Now()
			h, err := core.RunTiered(mdl, fl, cfg, topo)
			if err != nil {
				return fmt.Errorf("ext-hier f=%d %s: %w", fan, codec.name, err)
			}
			secs := time.Since(start).Seconds()
			name := "flat"
			if fan > 1 {
				name = fmt.Sprintf("f=%d", fan)
			}
			h.Label = name + " " + h.Label
			sec.Runs = append(sec.Runs, h)
			sec.Seconds = append(sec.Seconds, secs)
			fin := h.Final()
			sec.Notes = append(sec.Notes, fmt.Sprintf(
				"%s: root ingress %.2f MB, %.1f virtual-s, final loss %.4f",
				name, float64(fin.Cost.UplinkBytes)/1e6, fin.VirtualSeconds, fin.TrainLoss))
		}
		flat, deep := sec.Runs[0].Final(), sec.Runs[len(fans)-1].Final()
		sec.Notes = append(sec.Notes, fmt.Sprintf(
			"fan-out %d vs flat: %.0fx less root ingress, %+.1f%% virtual time, loss %.4f vs %.4f",
			deepest, float64(flat.Cost.UplinkBytes)/float64(deep.Cost.UplinkBytes),
			100*(deep.VirtualSeconds/flat.VirtualSeconds-1), deep.TrainLoss, flat.TrainLoss))
		res.Sections = append(res.Sections, sec)
	}
	res.Notes = append(res.Notes, "deterministic: the same seed reproduces every number above bit for bit;")
	return nil
}
