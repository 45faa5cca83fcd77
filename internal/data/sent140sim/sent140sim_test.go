package sent140sim

import (
	"math"
	"testing"

	"fedprox/internal/frand"
)

func testConfig() Config {
	c := Default()
	c.Devices = 25
	c.MinSamples = 10
	c.MaxSamples = 40
	c.SeqLen = 10
	return c
}

func TestGenerateShape(t *testing.T) {
	fed := Generate(testConfig())
	if fed.NumDevices() != 25 || fed.NumClasses != 2 || fed.SeqLen != 10 {
		t.Fatalf("shape: %d devices, %d classes, seq %d", fed.NumDevices(), fed.NumClasses, fed.SeqLen)
	}
	if err := fed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministic(t *testing.T) {
	a, b := Generate(testConfig()), Generate(testConfig())
	if a.Shards[4].Train[0].Y != b.Shards[4].Train[0].Y {
		t.Fatal("labels differ across identical configs")
	}
	for i, v := range a.Shards[4].Train[0].Seq {
		if b.Shards[4].Train[0].Seq[i] != v {
			t.Fatal("sequences differ across identical configs")
		}
	}
}

// TestLexiconPredictsLabel checks the generator's learnability contract:
// counting positive vs negative lexicon tokens should classify well above
// chance (the LSTM can only do better).
func TestLexiconPredictsLabel(t *testing.T) {
	c := testConfig()
	fed := Generate(c)
	correct, total := 0, 0
	for _, s := range fed.Shards {
		for _, ex := range s.Train {
			pos, neg := 0, 0
			for _, tok := range ex.Seq {
				switch {
				case tok < c.LexiconSize:
					pos++
				case tok < 2*c.LexiconSize:
					neg++
				}
			}
			pred := 0
			if pos > neg {
				pred = 1
			}
			if pos != neg {
				total++
				if pred == ex.Y {
					correct++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no polarized tweets generated")
	}
	if acc := float64(correct) / float64(total); acc < 0.8 {
		t.Fatalf("lexicon-count accuracy = %g, want >= 0.8", acc)
	}
}

func TestBothLabelsPresent(t *testing.T) {
	fed := Generate(testConfig())
	seen := map[int]int{}
	for _, s := range fed.Shards {
		for _, ex := range s.Train {
			seen[ex.Y]++
		}
	}
	if seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("label distribution degenerate: %v", seen)
	}
}

func TestAccountHeterogeneity(t *testing.T) {
	// Different accounts should favor different neutral tokens.
	c := testConfig()
	c.MinSamples, c.MaxSamples = 60, 80
	fed := Generate(c)
	top := func(k int) int {
		counts := map[int]int{}
		for _, ex := range fed.Shards[k].Train {
			for _, tok := range ex.Seq {
				if tok >= 2*c.LexiconSize {
					counts[tok]++
				}
			}
		}
		best, bestN := -1, -1
		for tok, n := range counts {
			if n > bestN {
				best, bestN = tok, n
			}
		}
		return best
	}
	distinct := map[int]bool{}
	for k := 0; k < fed.NumDevices(); k++ {
		distinct[top(k)] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("accounts share top tokens too much: %d distinct among %d devices", len(distinct), fed.NumDevices())
	}
}

func TestScaledAdjustsEverything(t *testing.T) {
	c := Default().Scaled(0.05, 12)
	if c.Devices < 20 {
		t.Fatalf("devices floor violated: %d", c.Devices)
	}
	if c.SeqLen != 12 {
		t.Fatalf("SeqLen = %d", c.SeqLen)
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
		{"vocab-within-lexicons", func(c *Config) { c.Vocab = c.LexiconSize }}, // vocab must exceed 2×lexicon
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

func TestTopicWeightsNormalized(t *testing.T) {
	w := topicWeights(frand.New(9), 50, 0.3)
	sum := 0.0
	for _, v := range w {
		if v < 0 {
			t.Fatal("negative topic weight")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("topic weights sum to %g", sum)
	}
}
