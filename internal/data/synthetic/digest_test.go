package synthetic

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedprox/internal/data"
)

// digest is a SHA-256 over a dataset's every feature bit, label and
// train/test assignment, shard by shard in order.
func digest(fed *data.Federated) string {
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	for _, s := range fed.Shards {
		word(uint64(s.ID))
		for _, part := range [][]data.Example{s.Train, s.Test} {
			word(uint64(len(part)))
			for _, ex := range part {
				word(uint64(ex.Y))
				for _, v := range ex.X {
					word(math.Float64bits(v))
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGenerateDigests pins Generate's bits: every feature, label and
// split of the IID set and of the paper's three heterogeneity levels, at
// two seeds. A change that moves one feature of any of them fails here by
// name; TestGenerateDeterministic only compares the generator with itself.
func TestGenerateDigests(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want [2]string // at seeds 42 and 7
	}{
		{DefaultIID().Scaled(0.1), [2]string{
			"0fcde60a166a5419f71e038092ce0182e783d2f8e04e58f016affd80ab2ea18e",
			"e4d6676a666e979bdc83b374a4d1e78f8ce22c6e790e5154697f87d3eb9b6474",
		}},
		{Default(0, 0).Scaled(0.1), [2]string{
			"fef23a7e073a1d65c98d3adeec20155544c1d6c41b0702f4df0680b8f36842f4",
			"161f431d888252df90dc53897bc2992e6eda87c97e649ea695a2b39b175b2b1a",
		}},
		{Default(0.5, 0.5).Scaled(0.1), [2]string{
			"e24f737df438bed769b0f0c1bb93b3203f423e8e70c2a5073ef2ef8e675617b0",
			"ac10cfc886350197b59af9286545debdc0aa6591da71a3efd2648ca46727e1e6",
		}},
		{Default(1, 1).Scaled(0.1), [2]string{
			"8e770d65f0492e69097c87819d9cef39990aee61604062571c099256d51a46a8",
			"21e59239fad6f2c69b1ef1efe2e28cb4b9682e4fe6a6217bca2156c1491b309a",
		}},
	} {
		for i, seed := range []uint64{42, 7} {
			cfg := c.cfg
			cfg.Seed = seed
			if got := digest(Generate(cfg)); got != c.want[i] {
				t.Errorf("%s seed %d: digest %s, want %s", cfg.Name(), seed, got, c.want[i])
			}
		}
	}
}
