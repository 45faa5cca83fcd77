package mnistsim

import (
	"testing"

	"fedprox/internal/data"
)

func TestScaledShape(t *testing.T) {
	fed := GenerateScaled(0.03)
	if fed.Name != "MNIST" {
		t.Fatalf("name = %q", fed.Name)
	}
	if fed.FeatureDim != 784 || fed.NumClasses != 10 {
		t.Fatalf("shape: dim=%d classes=%d", fed.FeatureDim, fed.NumClasses)
	}
	if fed.NumDevices() < 20 {
		t.Fatalf("device floor violated: %d", fed.NumDevices())
	}
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoDigitsPerDevice(t *testing.T) {
	fed := GenerateScaled(0.03)
	for _, s := range fed.Shards {
		classes := map[int]bool{}
		for _, ex := range s.Train {
			classes[ex.Y] = true
		}
		for _, ex := range s.Test {
			classes[ex.Y] = true
		}
		if len(classes) > 2 {
			t.Fatalf("device %d has %d digits, want <= 2", s.ID, len(classes))
		}
	}
}

func TestDefaultMatchesPaperScale(t *testing.T) {
	c := defaultConfig()
	if c.Devices != 1000 || c.Classes != 10 || c.ClassesPerDevice != 2 || c.Side != 28 {
		t.Fatalf("paper-scale config drifted: %+v", c)
	}
}

// BenchmarkGenerateScaled times the MNIST surrogate at the scale the
// benchmark of record's MNIST-shaped workloads build (0.2).
func BenchmarkGenerateScaled(b *testing.B) {
	for range b.N {
		benchFed = GenerateScaled(0.2)
	}
}

var benchFed *data.Federated
