package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
)

// historyDigest is a SHA-256 over a whole History by bits: its label,
// every field of every point (Cost included), every arrival, and the
// final parameters.
func historyDigest(h *History) string {
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
		word(uint64(a.Seq))
		float(a.Sent)
		float(a.Arrived)
		word(uint64(a.Staleness))
		word(uint64(a.Drop))
	}
	for _, v := range h.FinalParams {
		float(v)
	}
	return fmt.Sprintf("%x", hash.Sum(nil))
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
			"f0ab162209e4f33d7b9280ba136185af0b3d73d17925fece1552d57a830f9771"},
		{"async", qsgd8, qsgd8, tensor.F32,
			"6046a24fce44bb7d98dce172c8821e97c98d2982e9adba62d9d442b7f4d01984"},
		{"async", delta, comm.Spec{}, tensor.F64,
			"22c311789a4f8d979c7c3819d2805e28cddf769663550f5dc8c1caad8d993894"},
		{"async", delta, comm.Spec{}, tensor.F32,
			"dc509589900ef4bf89cf19f58da95cd2b6b342e6cad6c49bab503a544ebdd7bf"},
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
		h, err := run[c.exec](cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := historyDigest(h); got != c.want {
			t.Errorf("%s: digest %s, want %s", name, got, c.want)
		}
	}
}
