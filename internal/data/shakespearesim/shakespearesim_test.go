package shakespearesim

import (
	"math"
	"testing"

	"fedprox/internal/frand"
)

func testConfig() Config {
	c := Default()
	c.Devices = 12
	c.MinSamples = 10
	c.MaxSamples = 60
	c.SeqLen = 8
	return c
}

func TestGenerateShape(t *testing.T) {
	fed := Generate(testConfig())
	if fed.NumDevices() != 12 || fed.VocabSize != 80 || fed.SeqLen != 8 {
		t.Fatalf("shape: %d devices, vocab %d, seq %d", fed.NumDevices(), fed.VocabSize, fed.SeqLen)
	}
	if fed.NumClasses != 80 {
		t.Fatalf("next-char task must have vocab-sized label space, got %d", fed.NumClasses)
	}
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestExamplesAreSlidingWindows(t *testing.T) {
	fed := Generate(testConfig())
	// Consecutive examples within a device come from one stream: example
	// i+1's sequence is example i's sequence shifted by one with i's label
	// appended.
	s := fed.Shards[0]
	// Train order is shuffled by the split, so check the window-overlap
	// invariant as a multiset property: most sequences' one-shifted suffix
	// appears as another sequence's prefix (exceptions are windows whose
	// successor landed in the test split or the stream tail).
	prefixes := map[string]bool{}
	key := func(seq []int) string {
		b := make([]byte, len(seq))
		for i, v := range seq {
			b[i] = byte(v)
		}
		return string(b)
	}
	for _, ex := range s.Train {
		prefixes[key(ex.Seq[:len(ex.Seq)-1])] = true
	}
	hits := 0
	for _, ex := range s.Train {
		if prefixes[key(ex.Seq[1:])] {
			hits++
		}
	}
	if hits == 0 {
		t.Fatal("no overlapping windows found; stream construction broken")
	}
}

func TestDeterministic(t *testing.T) {
	a, b := Generate(testConfig()), Generate(testConfig())
	if a.Shards[2].Train[0].Y != b.Shards[2].Train[0].Y {
		t.Fatal("generation not deterministic")
	}
	for i, v := range a.Shards[2].Train[0].Seq {
		if b.Shards[2].Train[0].Seq[i] != v {
			t.Fatal("sequences differ across identical configs")
		}
	}
}

func TestRoleSkewChangesDistributions(t *testing.T) {
	// Character frequency histograms should differ more between roles when
	// RoleSkew is high.
	spread := func(skew float64) float64 {
		c := testConfig()
		c.RoleSkew = skew
		c.MinSamples, c.MaxSamples = 200, 400
		fed := Generate(c)
		hists := make([][]float64, len(fed.Shards))
		for k, s := range fed.Shards {
			h := make([]float64, fed.VocabSize)
			n := 0.0
			for _, ex := range s.Train {
				for _, tok := range ex.Seq {
					h[tok]++
					n++
				}
			}
			for j := range h {
				h[j] /= n
			}
			hists[k] = h
		}
		total, pairs := 0.0, 0
		for i := range hists {
			for j := i + 1; j < len(hists); j++ {
				d := 0.0
				for c := range hists[i] {
					d += math.Abs(hists[i][c] - hists[j][c])
				}
				total += d
				pairs++
			}
		}
		return total / float64(pairs)
	}
	lo, hi := spread(0.02), spread(0.9)
	if hi <= lo {
		t.Fatalf("role skew has no effect: spread(0.02)=%g spread(0.9)=%g", lo, hi)
	}
}

func TestTransitionMatrixRowStochastic(t *testing.T) {
	m := transitionMatrix(frand.New(17), 20, 3)
	for i, row := range m {
		sum := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative transition prob at row %d", i)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
}

func TestScaledCapsSeqLen(t *testing.T) {
	c := Default().Scaled(0.01, 16)
	if c.SeqLen != 16 {
		t.Fatalf("SeqLen = %d, want 16", c.SeqLen)
	}
	if c.MinSamples < 5 || c.MaxSamples < c.MinSamples {
		t.Fatalf("bounds invalid: %d..%d", c.MinSamples, c.MaxSamples)
	}
	// maxSeq 0 keeps the original.
	if got := Default().Scaled(1, 0).SeqLen; got != 80 {
		t.Fatalf("SeqLen = %d, want 80", got)
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
		{"one-char-vocab", func(c *Config) { c.Vocab = 1 }},
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
