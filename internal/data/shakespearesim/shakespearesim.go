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
	"fedprox/internal/data"
	"fedprox/internal/frand"
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
	c.MinSamples = data.ScaleCount(c.MinSamples, f, 5)
	c.MaxSamples = data.ScaleCount(c.MaxSamples, f, c.MinSamples)
	if maxSeq > 0 && c.SeqLen > maxSeq {
		c.SeqLen = maxSeq
	}
	return c
}

// Fleet is the lazy view of the dataset c describes: the base chain every
// role shares and the power-law sizes, and each role's shard built on
// demand from streams keyed by its index alone.
type Fleet struct {
	data.Sizes
	cfg  Config
	base [][]float64
	// Role k's streams are SplitIndex(k) of these.
	roleRng, splitRng *frand.Source
}

// NewFleet checks c and draws the base chain and the sizes.
func NewFleet(c Config) *Fleet {
	if c.Devices <= 0 || c.Vocab <= 1 || c.SeqLen <= 0 || c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("shakespearesim: invalid config")
	}
	root := frand.New(c.Seed)
	return &Fleet{
		Sizes:    data.Sizes{Samples: data.PowerLawSizes(root.Split("sizes"), c.Devices, c.MinSamples, c.MaxSamples, c.PowerAlpha), TrainFrac: c.TrainFrac},
		cfg:      c,
		base:     transitionMatrix(root.Split("base-chain"), c.Vocab, c.BranchFactor),
		roleRng:  root.Split("roles"),
		splitRng: root.Split("split"),
	}
}

// Header returns the dataset's metadata.
func (f *Fleet) Header() data.Federated {
	return data.Federated{Name: "Shakespeare", NumClasses: f.cfg.Vocab, VocabSize: f.cfg.Vocab, SeqLen: f.cfg.SeqLen}
}

// Shard builds role k's shard: its chain, one character stream, and the
// examples cut from it.
func (f *Fleet) Shard(k int) *data.Shard {
	c := f.cfg
	rrng := f.roleRng.SplitIndex(k)
	private := transitionMatrix(rrng.Split("chain"), c.Vocab, c.BranchFactor)
	// Role transition = (1−skew)·base + skew·private.
	chain := mixChains(f.base, private, c.RoleSkew)

	// Emit one character stream long enough to cut Samples[k] examples.
	n := f.Samples[k]
	stream := make([]int, n+c.SeqLen)
	state := rrng.Intn(c.Vocab)
	gen := rrng.Split("stream")
	for i := range stream {
		stream[i] = state
		state = gen.Categorical(chain[state])
	}
	examples := make([]data.Example, n)
	for i := range examples {
		examples[i] = data.Example{
			Seq: stream[i : i+c.SeqLen],
			Y:   stream[i+c.SeqLen],
		}
	}
	train, test := data.SplitTrainTest(examples, c.TrainFrac, f.splitRng.SplitIndex(k))
	return &data.Shard{ID: k, Train: train, Test: test}
}

// Generate builds the federated dataset described by c: the fleet's
// roles, built in parallel.
func Generate(c Config) *data.Federated { return data.Generate(NewFleet(c)) }

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
