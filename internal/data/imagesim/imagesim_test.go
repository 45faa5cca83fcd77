package imagesim

import (
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
)

func testConfig() Config {
	return Config{
		Name:             "test",
		Devices:          30,
		Classes:          5,
		ClassesPerDevice: 2,
		Side:             8,
		BlobsPerClass:    3,
		Noise:            0.2,
		MinSamples:       10,
		MaxSamples:       40,
		PowerAlpha:       2.0,
		TrainFrac:        0.8,
		Seed:             5,
	}
}

func TestGenerateShape(t *testing.T) {
	fed := Generate(testConfig())
	if fed.NumDevices() != 30 || fed.FeatureDim != 64 || fed.NumClasses != 5 {
		t.Fatalf("shape: %d devices, %d dim, %d classes", fed.NumDevices(), fed.FeatureDim, fed.NumClasses)
	}
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestPixelsInUnitRange: with and without a device style, every pixel
// lies in [0, 1] and none is NaN or −0, the one input on which the
// clamp's two forms (branches, or min and max) differ.
func TestPixelsInUnitRange(t *testing.T) {
	for _, skew := range []float64{0, 0.45} {
		c := testConfig()
		c.DeviceSkew = skew
		for _, s := range Generate(c).Shards {
			for _, set := range [][]data.Example{s.Train, s.Test} {
				for _, ex := range set {
					for _, v := range ex.X {
						if !(v >= 0 && v <= 1) || v == 0 && math.Signbit(v) {
							t.Fatalf("DeviceSkew %g: pixel %g outside [0,1] or −0", skew, v)
						}
					}
				}
			}
		}
	}
}

func TestLabelSkewHolds(t *testing.T) {
	fed := Generate(testConfig())
	for _, s := range fed.Shards {
		classes := map[int]bool{}
		for _, ex := range s.Train {
			classes[ex.Y] = true
		}
		for _, ex := range s.Test {
			classes[ex.Y] = true
		}
		if len(classes) > 2 {
			t.Fatalf("device %d saw %d classes, want <= 2", s.ID, len(classes))
		}
	}
}

func TestDeterministic(t *testing.T) {
	a, b := Generate(testConfig()), Generate(testConfig())
	if a.Shards[3].Train[0].X[10] != b.Shards[3].Train[0].X[10] {
		t.Fatal("generation not deterministic")
	}
}

func TestPrototypesDistinct(t *testing.T) {
	protos := prototypes(frand.New(3), 4, 8, 3)
	if len(protos) != 4 {
		t.Fatalf("got %d prototypes", len(protos))
	}
	for c, p := range protos {
		max := 0.0
		for _, v := range p {
			if v > max {
				max = v
			}
		}
		if max < 0.99 || max > 1.01 {
			t.Fatalf("class %d prototype peak = %g, want 1", c, max)
		}
	}
	// Distinct classes must differ somewhere meaningful.
	diff := 0.0
	for j := range protos[0] {
		d := protos[0][j] - protos[1][j]
		diff += d * d
	}
	if diff < 1e-3 {
		t.Fatal("prototypes of different classes are nearly identical")
	}
}

func TestStyleFieldBounded(t *testing.T) {
	f := styleField(frand.New(9), 12, 3)
	if len(f) != 144 {
		t.Fatalf("style field length %d", len(f))
	}
	for i, v := range f {
		if v < -3.5 || v > 3.5 {
			t.Fatalf("style field[%d] = %g, out of plausible bump range", i, v)
		}
	}
	// Must be signed: a pure-positive field would only brighten.
	hasNeg, hasPos := false, false
	for _, v := range f {
		if v < -0.05 {
			hasNeg = true
		}
		if v > 0.05 {
			hasPos = true
		}
	}
	if !hasNeg || !hasPos {
		t.Fatal("style field is not signed")
	}
}

// TestDeviceSkewSeparatesDevices: with skew on, two devices sharing a
// class render it differently; with skew off they agree up to noise.
func TestDeviceSkewSeparatesDevices(t *testing.T) {
	meanImage := func(skew float64, device int) []float64 {
		c := testConfig()
		c.DeviceSkew = skew
		c.ClassesPerDevice = c.Classes // all devices see all classes
		c.MinSamples, c.MaxSamples = 60, 60
		fed := Generate(c)
		sum := make([]float64, fed.FeatureDim)
		n := 0
		for _, ex := range fed.Shards[device].Train {
			if ex.Y != 0 {
				continue
			}
			for j, v := range ex.X {
				sum[j] += v
			}
			n++
		}
		for j := range sum {
			sum[j] /= float64(n)
		}
		return sum
	}
	dist := func(skew float64) float64 {
		a, b := meanImage(skew, 0), meanImage(skew, 1)
		d := 0.0
		for j := range a {
			d += (a[j] - b[j]) * (a[j] - b[j])
		}
		return d
	}
	if dist(0.8) <= dist(0)*1.5 {
		t.Fatalf("device skew had no separating effect: skew=%g noskew=%g", dist(0.8), dist(0))
	}
}

func TestScaledFloors(t *testing.T) {
	c := testConfig().Scaled(0.001)
	if c.MinSamples < 5 || c.MaxSamples < c.MinSamples {
		t.Fatalf("Scaled bounds invalid: %d..%d", c.MinSamples, c.MaxSamples)
	}
}

// TestPanicsOnInvalidConfig holds every config check to Generate's own
// goroutine, ahead of the parallel per-device loop, where a panic could
// not be recovered.
func TestPanicsOnInvalidConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(c *Config)
	}{
		{"one-class", func(c *Config) { c.Classes = 1 }},
		{"train-frac-1.5", func(c *Config) { c.TrainFrac = 1.5 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testConfig()
			tc.edit(&c)
			defer func() {
				if recover() == nil {
					t.Fatal("invalid config did not panic")
				}
			}()
			Generate(c)
		})
	}
}

// TestClampMatchesBranches holds clamp01 to the two branches it replaced
// on the inputs where min and max have special rules. They differ only at
// −0, which TestPixelsInUnitRange shows no pixel takes.
func TestClampMatchesBranches(t *testing.T) {
	branches := func(v float64) float64 {
		if v < 0 {
			v = 0
		} else if v > 1 {
			v = 1
		}
		return v
	}
	negZero := math.Copysign(0, -1)
	for _, v := range []float64{0, negZero, math.NaN(), math.Inf(1), math.Inf(-1),
		0.5, 1, math.Nextafter(1, 2), math.Nextafter(0, -1)} {
		got, want := clamp01(v), branches(v)
		same := math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
		if isNegZero := v == 0 && math.Signbit(v); same == isNegZero {
			t.Errorf("clamp01(%g) = %g, branches give %g: want them to differ at −0 only", v, got, want)
		}
	}
	if got := clamp01(negZero); math.Signbit(got) {
		t.Errorf("clamp01(−0) = −0, want +0")
	}
}
