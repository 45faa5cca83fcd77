// Package sent140sim provides the offline surrogate for the paper's
// Sent140 workload: binary tweet-sentiment classification with one device
// per Twitter account (772 devices) and an LSTM over a fixed-length token
// sequence (Section 5.1, Appendix C.1).
//
// Real tweets and pretrained GloVe embeddings are replaced by synthetic
// token streams: the vocabulary is split into positive-lexicon,
// negative-lexicon, and neutral tokens; each account has its own topic
// distribution over neutral tokens (the per-device drift the paper relies
// on) and its own positivity rate. A tweet's label is the sign of its net
// lexicon polarity, with token-level noise so the task is learnable but
// not trivial. Embeddings are learned by the model instead of loaded from
// GloVe (the offline constraint of imagesim's package comment).
package sent140sim

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
)

// Config parameterizes the generator.
type Config struct {
	// Devices is the number of Twitter accounts (paper: 772).
	Devices int
	// Vocab is the token vocabulary size.
	Vocab int
	// LexiconSize is the number of positive tokens (an equal number are
	// negative; the rest are neutral).
	LexiconSize int
	// SeqLen is the tokens-per-tweet input length (paper: 25).
	SeqLen int
	// PolarityRate is the fraction of tokens in a tweet drawn from the
	// label's lexicon rather than the account's neutral topics.
	PolarityRate float64
	// NoiseRate is the fraction of lexicon draws flipped to the opposite
	// lexicon, bounding achievable accuracy below 100%.
	NoiseRate float64
	// TopicConcentration controls per-account topic skew over neutral
	// tokens: smaller values give spikier, more heterogeneous accounts.
	TopicConcentration float64
	// MinSamples and MaxSamples bound per-account tweet counts.
	MinSamples, MaxSamples int
	// PowerAlpha is the power-law exponent.
	PowerAlpha float64
	// TrainFrac is the per-device train split.
	TrainFrac float64
	// Seed drives all randomness.
	Seed uint64
}

// Default returns the paper-shape configuration: 772 accounts, ~53 tweets
// per account, 25-token tweets.
func Default() Config {
	return Config{
		Devices:            772,
		Vocab:              400,
		LexiconSize:        40,
		SeqLen:             25,
		PolarityRate:       0.35,
		NoiseRate:          0.08,
		TopicConcentration: 0.3,
		MinSamples:         25,
		MaxSamples:         200,
		PowerAlpha:         2.4,
		TrainFrac:          0.8,
		Seed:               4004,
	}
}

// Scaled returns a copy of c sized for fast runs: device count and sample
// bounds scaled by f and sequence length capped at maxSeq (0 keeps SeqLen).
func (c Config) Scaled(f float64, maxSeq int) Config {
	c.Devices = data.ScaleCount(c.Devices, f, 20)
	c.MinSamples = data.ScaleCount(c.MinSamples, f, 5)
	c.MaxSamples = data.ScaleCount(c.MaxSamples, f, c.MinSamples)
	if maxSeq > 0 && c.SeqLen > maxSeq {
		c.SeqLen = maxSeq
	}
	return c
}

// Fleet is the lazy view of the dataset c describes: the power-law sizes,
// and each account's shard built on demand from streams keyed by its
// index alone.
type Fleet struct {
	data.Sizes
	cfg Config
	// Account k's streams are SplitIndex(k) of these.
	accountRng, splitRng *frand.Source
}

// NewFleet checks c and draws the sizes.
func NewFleet(c Config) *Fleet {
	if c.Devices <= 0 || c.Vocab <= 2*c.LexiconSize || c.SeqLen <= 0 || c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("sent140sim: invalid config")
	}
	root := frand.New(c.Seed)
	return &Fleet{
		Sizes:      data.Sizes{Samples: data.PowerLawSizes(root.Split("sizes"), c.Devices, c.MinSamples, c.MaxSamples, c.PowerAlpha), TrainFrac: c.TrainFrac},
		cfg:        c,
		accountRng: root.Split("accounts"),
		splitRng:   root.Split("split"),
	}
}

// Header returns the dataset's metadata.
func (f *Fleet) Header() data.Federated {
	return data.Federated{Name: "Sent140", NumClasses: 2, VocabSize: f.cfg.Vocab, SeqLen: f.cfg.SeqLen}
}

// Shard builds account k's shard: its topics and positivity rate, then
// its tweets.
func (f *Fleet) Shard(k int) *data.Shard {
	c := f.cfg
	neutralLo := 2 * c.LexiconSize // tokens [0,L) positive, [L,2L) negative
	arng := f.accountRng.SplitIndex(k)
	topics := topicWeights(arng.Split("topics"), c.Vocab-neutralLo, c.TopicConcentration)
	// Account-level class balance in [0.25, 0.75]: accounts lean
	// positive or negative, another axis of heterogeneity.
	posRate := 0.25 + 0.5*arng.Float64()

	gen := arng.Split("tweets")
	examples := make([]data.Example, f.Samples[k])
	for i := range examples {
		y := 0
		if gen.Bernoulli(posRate) {
			y = 1
		}
		seq := make([]int, c.SeqLen)
		for t := range seq {
			if gen.Bernoulli(c.PolarityRate) {
				lex := y // 1 → positive lexicon, 0 → negative
				if gen.Bernoulli(c.NoiseRate) {
					lex = 1 - lex
				}
				if lex == 1 {
					seq[t] = gen.Intn(c.LexiconSize)
				} else {
					seq[t] = c.LexiconSize + gen.Intn(c.LexiconSize)
				}
			} else {
				seq[t] = neutralLo + gen.Categorical(topics)
			}
		}
		examples[i] = data.Example{Seq: seq, Y: y}
	}
	train, test := data.SplitTrainTest(examples, c.TrainFrac, f.splitRng.SplitIndex(k))
	return &data.Shard{ID: k, Train: train, Test: test}
}

// topicWeights draws a spiky categorical distribution over n neutral
// tokens. Smaller concentration produces spikier (more account-specific)
// distributions; weights are samples from a symmetric Dirichlet
// approximated by normalized Gamma(concentration) draws via the
// Marsaglia-Tsang-free exponential-power trick adequate for simulation.
func topicWeights(rng *frand.Source, n int, concentration float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		// Gamma(a) for small a via Ahrens-Dieter-style transform:
		// X = U^(1/a) · Exp(1) has the right small-a tail behaviour for
		// producing spiky normalized weights. Exact Dirichlet sampling is
		// unnecessary here; only the skew profile matters.
		u := rng.Float64()
		e := -math.Log(1 - rng.Float64())
		w[i] = math.Pow(u, 1/concentration) * e
		total += w[i]
	}
	if total <= 0 {
		// Degenerate draw; fall back to uniform.
		for i := range w {
			w[i] = 1 / float64(n)
		}
		return w
	}
	for i := range w {
		w[i] /= total
	}
	return w
}
