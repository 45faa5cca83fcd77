// Package shakespearesim provides the offline surrogate for the paper's
// Shakespeare workload: next-character prediction over an 80-character
// vocabulary, with one device per speaking role (143 devices) and
// sequences of 80 characters (Section 5.1, Appendix C.1).
//
// The real corpus is replaced by per-role character-level Markov
// generators. All roles share a global base transition matrix (so a single
// global model is learnable, matching the paper's premise that local
// distributions "are not entirely unrelated"), and each role mixes in its
// own random transition matrix with weight RoleSkew — the statistical
// heterogeneity knob. Text is emitted as a stream per role and cut into
// (sequence, next-character) examples, exactly the shape the paper's LSTM
// consumes.
package shakespearesim

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Config parameterizes the generator.
type Config struct {
	// Devices is the number of speaking roles (paper: 143).
	Devices int
	// Vocab is the character vocabulary size (paper: 80).
	Vocab int
	// SeqLen is the input sequence length (paper: 80).
	SeqLen int
	// RoleSkew in [0,1] is the weight on each role's private transition
	// matrix; 0 makes all roles IID.
	RoleSkew float64
	// BranchFactor is how many successor characters each character favors
	// in the base chain; small values give text-like predictability.
	BranchFactor int
	// MinSamples and MaxSamples bound the power-law allocation of examples
	// per role.
	MinSamples, MaxSamples int
	// PowerAlpha is the power-law exponent.
	PowerAlpha float64
	// TrainFrac is the per-device train split.
	TrainFrac float64
	// Seed drives all randomness.
	Seed uint64
}

// Default returns the paper-shape configuration. Sample counts follow the
// paper's heavy skew (mean ≈ 3.6k, stdev ≈ 6.8k); use Scaled for runnable
// experiment sizes.
func Default() Config {
	return Config{
		Devices:      143,
		Vocab:        80,
		SeqLen:       80,
		RoleSkew:     0.5,
		BranchFactor: 4,
		MinSamples:   80,
		MaxSamples:   45000,
		PowerAlpha:   1.3,
		TrainFrac:    0.8,
		Seed:         3003,
	}
}

// Scaled returns a copy of c sized for fast experiment runs: sample bounds
// scaled by f and sequence length capped at maxSeq (0 keeps SeqLen).
func (c Config) Scaled(f float64, maxSeq int) Config {
	c.MinSamples = scaleFloor(c.MinSamples, f, 5)
	c.MaxSamples = scaleFloor(c.MaxSamples, f, c.MinSamples)
	if maxSeq > 0 && c.SeqLen > maxSeq {
		c.SeqLen = maxSeq
	}
	return c
}

func scaleFloor(n int, f float64, floor int) int {
	v := int(math.Round(float64(n) * f))
	if v < floor {
		v = floor
	}
	return v
}

// Generate builds the federated dataset described by c, its roles in
// parallel: each one's streams are keyed by its index alone, and the base
// chain they share is built first.
func Generate(c Config) *data.Federated {
	if c.Devices <= 0 || c.Vocab <= 1 || c.SeqLen <= 0 || c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("shakespearesim: invalid config")
	}
	root := frand.New(c.Seed)
	baseRng := root.Split("base-chain")
	sizeRng := root.Split("sizes")
	roleRng := root.Split("roles")
	splitRng := root.Split("split")

	base := transitionMatrix(baseRng, c.Vocab, c.BranchFactor)
	sizes := data.PowerLawSizes(sizeRng, c.Devices, c.MinSamples, c.MaxSamples, c.PowerAlpha)

	fed := &data.Federated{
		Name:       "Shakespeare",
		Shards:     make([]*data.Shard, c.Devices),
		NumClasses: c.Vocab,
		VocabSize:  c.Vocab,
		SeqLen:     c.SeqLen,
	}
	tensor.ParallelFor(c.Devices, 0, func(k int) {
		rrng := roleRng.SplitIndex(k)
		private := transitionMatrix(rrng.Split("chain"), c.Vocab, c.BranchFactor)
		// Role transition = (1−skew)·base + skew·private.
		chain := mixChains(base, private, c.RoleSkew)

		// Emit one character stream long enough to cut sizes[k] examples.
		streamLen := sizes[k] + c.SeqLen
		stream := make([]int, streamLen)
		state := rrng.Intn(c.Vocab)
		gen := rrng.Split("stream")
		for i := range stream {
			stream[i] = state
			state = gen.Categorical(chain[state])
		}
		examples := make([]data.Example, sizes[k])
		for i := range examples {
			examples[i] = data.Example{
				Seq: stream[i : i+c.SeqLen],
				Y:   stream[i+c.SeqLen],
			}
		}
		train, test := data.SplitTrainTest(examples, c.TrainFrac, splitRng.SplitIndex(k))
		fed.Shards[k] = &data.Shard{ID: k, Train: train, Test: test}
	})
	if err := fed.Validate(); err != nil {
		panic(err)
	}
	return fed
}

// transitionMatrix draws a sparse-ish row-stochastic matrix: each character
// strongly favors branch successors and keeps a small uniform floor so
// every transition has support.
func transitionMatrix(rng *frand.Source, vocab, branch int) [][]float64 {
	m := make([][]float64, vocab)
	for i := range m {
		row := make([]float64, vocab)
		const floor = 0.02
		for j := range row {
			row[j] = floor
		}
		crng := rng.SplitIndex(i)
		for b := 0; b < branch; b++ {
			row[crng.Intn(vocab)] += 1 + 2*crng.Float64()
		}
		normalize(row)
		m[i] = row
	}
	return m
}

func mixChains(a, b [][]float64, w float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range a {
		row := make([]float64, len(a[i]))
		for j := range row {
			row[j] = (1-w)*a[i][j] + w*b[i][j]
		}
		normalize(row)
		out[i] = row
	}
	return out
}

func normalize(row []float64) {
	total := 0.0
	for _, v := range row {
		total += v
	}
	for j := range row {
		row[j] /= total
	}
}
