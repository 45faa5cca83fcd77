package imagesim_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/femnistsim"
	"fedprox/internal/data/imagesim"
	"fedprox/internal/data/mnistsim"
)

// digest is a SHA-256 over a dataset's every pixel bit, label and
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

// TestSurrogateDigests pins the image surrogates' bits: every pixel, label
// and split of a scaled MNIST and a small FEMNIST set, and of an
// MNIST-shaped set with DeviceSkew 0, the one config whose devices draw no
// style field and add a zero one. A change that moves one pixel of any fails here by
// name; TestDeterministic only compares the generator with itself.
func TestSurrogateDigests(t *testing.T) {
	for _, c := range []struct {
		name string
		gen  func() *data.Federated
		want string
	}{
		{"mnistsim.GenerateScaled(0.2)", func() *data.Federated { return mnistsim.GenerateScaled(0.2) },
			"68d4e3a21835fee1fe772e0d801be377cdd975ae94587282bc9b7c7d703e3f48"},
		{"imagesim.Generate(femnistsim.Scaled(0.05))", func() *data.Federated { return imagesim.Generate(femnistsim.Scaled(0.05)) },
			"8d7207ef39c2c11b2f29bd7457101d26ef43f10788f941354d6c43095b91b761"},
		{"imagesim.Generate(DeviceSkew 0)", func() *data.Federated { return imagesim.Generate(styleFree) },
			"5c510645dcc1584c80bd38a0677931cb535bc180e2f5cd970c3e1e84702fd509"},
	} {
		if got := digest(c.gen()); got != c.want {
			t.Errorf("%s: digest %s, want %s", c.name, got, c.want)
		}
	}
}

// styleFree is MNIST's shape at a small scale with no per-device style.
var styleFree = imagesim.Config{
	Name:             "MNIST-style-free",
	Devices:          40,
	Classes:          10,
	ClassesPerDevice: 2,
	Side:             28,
	BlobsPerClass:    4,
	Noise:            0.45,
	MinSamples:       18,
	MaxSamples:       220,
	PowerAlpha:       2.12,
	TrainFrac:        0.8,
	Seed:             1002,
}
