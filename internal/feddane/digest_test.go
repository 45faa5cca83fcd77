package feddane

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
)

// trajectoryDigest is a SHA-256 over a History's label and every point's
// Round, TrainLoss, TestAcc, GradVar, B, Mu and Participants, by bits.
func trajectoryDigest(h *core.History) string {
	hash := sha256.New()
	word := func(v uint64) { hash.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	hash.Write([]byte(h.Label))
	for _, p := range h.Points {
		word(uint64(p.Round))
		for _, v := range []float64{p.TrainLoss, p.TestAcc, p.GradVar, p.B, p.Mu} {
			word(math.Float64bits(v))
		}
		word(uint64(p.Participants))
	}
	return fmt.Sprintf("%x", hash.Sum(nil))
}

// TestTrajectoryDigests pins FedDane's trajectories bit for bit at six
// configurations that cover its decisions: the gradient set widened past
// the cohort and truncated below it, the dissimilarity columns with a
// thinned evaluation cadence, aggregated stragglers and the weighted
// sampling scheme. The goldens are amd64 facts, like every other digest.
func TestTrajectoryDigests(t *testing.T) {
	base := func(mu float64) core.Config { return core.FedProx(6, 10, 5, 0.01, mu) }
	for _, c := range []struct {
		name string
		data synthetic.Config
		cfg  Config
		want string
	}{
		{"iid-mu1", synthetic.DefaultIID(), Config{Config: base(1)},
			"18cf04239b0ce76c8a8a75e36b22290808013c68941388347d707a47e964363f"},
		{"het-mu0-c20", synthetic.Default(1, 1), Config{Config: base(0), GradClients: 20},
			"8be21263a8288a085679f4a9b6a64862f52ff6a4df6baf9d88577445b6b0c4fe"},
		{"het-c3", synthetic.Default(1, 1), Config{Config: base(1), GradClients: 3},
			"595085250e0f63f8b9b115032115523604a926f05bc66b63648d86ba1df00018"},
		{"dissimilarity-every2", synthetic.Default(0.5, 0.5), func() Config {
			cfg := Config{Config: base(1)}
			cfg.TrackDissimilarity = true
			cfg.EvalEvery = 2
			return cfg
		}(), "f008d14ae1f94187fbf87f62975fec704da1cfe7177080f37a93e1699cadd137"},
		{"stragglers-aggregated", synthetic.Default(1, 1), func() Config {
			cfg := Config{Config: base(1)}
			cfg.StragglerFraction = 0.5
			return cfg
		}(), "47c424b04fd2081c55c0a08dc8667da499dbc8b6015362e5e7cb344c85836c78"},
		{"weighted-simple-avg", synthetic.Default(1, 1), func() Config {
			cfg := Config{Config: base(1)}
			cfg.Sampling = core.WeightedSimpleAvg
			return cfg
		}(), "6d69e2f3e7ddd1f2cc41e5f6deb35aaa8fc1e117ca027aee4d1e6e084c214d01"},
	} {
		fed := synthetic.Generate(c.data.Scaled(0.12))
		h, err := Run(linear.ForDataset(fed), fed, c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := trajectoryDigest(h); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}
