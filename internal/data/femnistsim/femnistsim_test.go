package femnistsim

import "testing"

func TestScaledShape(t *testing.T) {
	fed := GenerateScaled(0.15)
	if fed.Name != "FEMNIST" {
		t.Fatalf("name = %q", fed.Name)
	}
	if fed.FeatureDim != 784 || fed.NumClasses != 10 {
		t.Fatalf("shape: dim=%d classes=%d", fed.FeatureDim, fed.NumClasses)
	}
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestFiveClassesPerDevice(t *testing.T) {
	fed := GenerateScaled(0.15)
	for _, s := range fed.Shards {
		classes := map[int]bool{}
		for _, ex := range s.Train {
			classes[ex.Y] = true
		}
		for _, ex := range s.Test {
			classes[ex.Y] = true
		}
		if len(classes) > 5 {
			t.Fatalf("device %d has %d classes, want <= 5", s.ID, len(classes))
		}
	}
}

func TestDefaultMatchesPaperScale(t *testing.T) {
	c := defaultConfig()
	if c.Devices != 200 || c.ClassesPerDevice != 5 {
		t.Fatalf("paper-scale config drifted: %+v", c)
	}
}
