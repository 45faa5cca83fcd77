package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/obs"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
)

// historyDigest is a SHA-256 over a whole History by bits: its label,
// every field of every point (Cost included), every arrival, and the
// final parameters, then the seq and staleness of each reply event in
// replies (nil for a run with no trace).
func historyDigest(h *History, replies replyTape) string {
	hash := sha256.New()
	word := func(v uint64) { hash.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	float := func(v float64) { word(math.Float64bits(v)) }
	hash.Write([]byte(h.Label))
	for _, p := range h.Points {
		word(uint64(p.Round))
		for _, v := range []float64{p.TrainLoss, p.TestAcc, p.GradVar, p.B, p.Mu, p.MeanGamma,
			p.MeanStaleness, p.MaxStaleness, p.VirtualSeconds, p.MeanEpochsDone, p.PartialFraction} {
			float(v)
		}
		word(uint64(p.Participants))
		c := p.Cost
		for _, v := range []int64{c.UplinkBytes, c.DownlinkBytes, c.WireUplinkBytes, c.WireDownlinkBytes,
			c.EvalBytes, int64(c.DeviceEpochs), int64(c.WastedEpochs)} {
			word(uint64(v))
		}
	}
	for _, a := range h.Arrivals {
		word(uint64(a.Device))
		float(a.Sent)
		float(a.Arrived)
		word(uint64(a.Drop))
	}
	for _, v := range h.FinalParams {
		float(v)
	}
	for _, e := range replies {
		word(uint64(e.Seq))
		word(uint64(e.Staleness))
	}
	return fmt.Sprintf("%x", hash.Sum(nil))
}

// replyTape is a trace sink that keeps the coordinator's reply events,
// in emission order.
type replyTape []obs.Event

func (r *replyTape) Emit(e obs.Event) {
	if e.Kind == obs.KindReply {
		*r = append(*r, e)
	}
}

// TestCodecRunDigests pins whole codec-run trajectories bit for bit: the
// two prev-relative downlinks (8-bit delta+qsgd both ways, and dense
// delta) at both widths, on the three in-process executors that keep a
// downlink chain — a synchronous RunFleet, AsyncTotal on virtual time,
// and RunTiered at fan-out 2. The goldens are amd64 facts, like every
// other digest.
func TestCodecRunDigests(t *testing.T) {
	m, fed := tinyWorkload()
	qsgd8 := comm.Spec{Name: "delta+qsgd", Bits: 8}
	delta := comm.Spec{Name: "delta"}
	run := map[string]func(Config) (*History, error){
		"sync": func(cfg Config) (*History, error) { return RunFleet(m, fed.Fleet(), cfg) },
		"async": func(cfg Config) (*History, error) {
			cfg.Async = AsyncConfig{Mode: AsyncTotal}
			cfg.VTime = VTimeConfig{Model: vtimeModel(fed.NumDevices(), 17)}
			return RunFleet(m, fed.Fleet(), cfg)
		},
		"tiered": func(cfg Config) (*History, error) {
			return RunTiered(m, fed.Fleet(), cfg, tier.Topology{FanOut: 2, Depth: 1})
		},
	}
	for _, c := range []struct {
		exec  string
		codec comm.Spec
		down  comm.Spec
		prec  tensor.Precision
		want  string
	}{
		{"sync", qsgd8, qsgd8, tensor.F64,
			"8e37f25b1a61e1ac4ae756634d8a04daa88e37b3225898f907a9ef27c2d0f1e3"},
		{"sync", qsgd8, qsgd8, tensor.F32,
			"227fdb3ec3dee1cfd9dffdf3c3fd1a55e6716062db590047d2e7c58d696242e5"},
		{"sync", delta, comm.Spec{}, tensor.F64,
			"855750aeffd9407cb25f503a5dbb65fde5b13baaefc4cb87cb2f4b8dcff95fd1"},
		{"sync", delta, comm.Spec{}, tensor.F32,
			"36633aa6ceb6b2ebbd11b4524d68eaa4fa2114e3b0ba31f2c51049bf8502f0af"},
		{"async", qsgd8, qsgd8, tensor.F64,
			"0979587683ebd9f7aedfe72c6c8c4a19a588134ef1e3470ca05ec6edd8661ffd"},
		{"async", qsgd8, qsgd8, tensor.F32,
			"18cb90defb2d8f8b5b1cc4b32465f5ca6d94ccacfe701ea772535d2acefdcd96"},
		{"async", delta, comm.Spec{}, tensor.F64,
			"4c69a26aabacd0864fa198dcc1b5824eba2700d3ce6e3070802298b120163b64"},
		{"async", delta, comm.Spec{}, tensor.F32,
			"212a3075fdc39e3ac43bca784c2b4a7e9aec64afa836e317129e0ef67468d8c6"},
		{"tiered", qsgd8, qsgd8, tensor.F64,
			"e61e54255f9529bdb3c0367bfa901e0ef2eec9e904bbd3126ce329c596c40f26"},
		{"tiered", qsgd8, qsgd8, tensor.F32,
			"34688886a4b5a556e654d4ba4b3160e4f35000c3cd8d858448a3c7d5a4998c90"},
		{"tiered", delta, comm.Spec{}, tensor.F64,
			"57e652be74b20b4d353e45c62651d8c07f2e6f109a7309c7985b1afb8f9f3265"},
		{"tiered", delta, comm.Spec{}, tensor.F32,
			"bccb74e1ac36456d3d1b8c32cd55d5fceb7eabd38c432e508932a39b2eaa2f2d"},
	} {
		name := fmt.Sprintf("%s/%s/%s", c.exec, c.codec.Name, c.prec)
		cfg := FedProx(6, 8, 3, 0.01, 1)
		cfg.StragglerFraction = 0.5
		cfg.EvalEvery = 2
		cfg.Codec, cfg.DownlinkCodec, cfg.Precision = c.codec, c.down, c.prec
		// An async run's per-reply seq and staleness live in its trace.
		var replies replyTape
		if c.exec == "async" {
			cfg.Trace = &replies
		}
		h, err := run[c.exec](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := historyDigest(h, replies); got != c.want {
			t.Errorf("%s: digest %s, want %s", name, got, c.want)
		}
	}
}
