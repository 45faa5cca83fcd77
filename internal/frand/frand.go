// Package frand provides deterministic, splittable pseudo-random number
// streams for federated simulations.
//
// The paper's evaluation protocol requires that, for each comparison, the
// randomly selected devices, the stragglers, and the mini-batch orders are
// fixed across all runs (Section 5.1). frand makes that protocol explicit:
// a single experiment seed is split into independent named streams
// ("selection", "stragglers", "batches", ...), so changing the algorithm
// under test never perturbs the randomness of the environment.
//
// The generator is SplitMix64 (Steele et al., "Fast Splittable Pseudorandom
// Number Generators", OOPSLA 2014): tiny state, high quality, and cheap to
// split by hashing a label into the seed.
package frand

import (
	"hash/fnv"
	"math"
)

// Source is a deterministic 64-bit PRNG stream.
//
// The zero value is a valid stream seeded with 0; prefer New or Split so
// related streams are decorrelated.
type Source struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream from s identified by label.
// Splitting is deterministic: the same parent seed and label always yield
// the same child stream, and distinct labels yield decorrelated streams.
// Split does not advance s.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	h.Write([]byte(label))
	return New(mix(s.state + 0x9e3779b97f4a7c15 ^ h.Sum64()))
}

// SplitIndex derives an independent child stream identified by an integer,
// e.g. one stream per device or per round.
func (s *Source) SplitIndex(i int) *Source {
	return New(mix(s.state + 0x9e3779b97f4a7c15*uint64(i+1)))
}

// State returns the stream's current state. frand.New(s.State()) yields a
// stream that continues exactly where s is now — the serialization hook
// the distributed runtime uses to ship a batch-order stream to a worker.
func (s *Source) State() uint64 { return s.state }

// Uint64 returns the next value in the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	return mix(s.state)
}

// Skip advances the stream past n values without computing them: the
// state moves by one constant per Uint64, so n of them are one multiply.
// A Norm takes two values, so skipping n deviates is Skip(2n).
func (s *Source) Skip(n int) {
	s.state += 0x9e3779b97f4a7c15 * uint64(n)
}

// mix is the SplitMix64 output function.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("frand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias at n << 2^64 is far below simulation noise.
	return int(s.Uint64() % uint64(n))
}

// IntRange returns a uniform value in [lo, hi] inclusive. It panics if
// hi < lo.
func (s *Source) IntRange(lo, hi int) int {
	if hi < lo {
		panic("frand: IntRange with hi < lo")
	}
	return lo + s.Intn(hi-lo+1)
}

// Norm returns a standard normal deviate via the Box-Muller transform.
// tensor.Normals is its batched twin: it fills a slice with the values
// successive Norm calls return, bit for bit, four at a time on AVX2.
func (s *Source) Norm() float64 {
	// Draw u1 in (0,1] so Log never sees zero.
	u1 := 1.0 - s.Float64()
	u2 := s.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormMeanStd returns a normal deviate with the given mean and standard
// deviation.
func (s *Source) NormMeanStd(mean, std float64) float64 {
	return mean + std*s.Norm()
}

// NormVec fills dst with independent N(mean, std²) deviates and returns it.
func (s *Source) NormVec(dst []float64, mean, std float64) []float64 {
	for i := range dst {
		dst[i] = s.NormMeanStd(mean, std)
	}
	return dst
}

// Perm returns a random permutation of [0, n), as used for mini-batch
// shuffling.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(p)
	return p
}

// Shuffle permutes p in place with a Fisher-Yates shuffle.
func (s *Source) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Choice samples k distinct indices uniformly from [0, n) without
// replacement. It panics if k > n or k < 0.
func (s *Source) Choice(n, k int) []int {
	if k < 0 || k > n {
		panic("frand: Choice with k out of range")
	}
	// Partial Fisher-Yates: only the first k slots are needed.
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// WeightedChoice samples k distinct indices without replacement: each
// draw picks index i with probability proportional to weights[i] among the
// indices not yet drawn. Only the first draw follows weights exactly; the
// paper's Algorithms 1 and 2 draw independently, with replacement
// (ROADMAP items 3 and 37). It panics if k > len(weights), or if the
// remaining total weight is not positive while draws remain.
func (s *Source) WeightedChoice(weights []float64, k int) []int {
	n := len(weights)
	if k < 0 || k > n {
		panic("frand: WeightedChoice with k out of range")
	}
	w := make([]float64, n)
	copy(w, weights)
	total := 0.0
	for _, v := range w {
		if v < 0 {
			panic("frand: WeightedChoice with negative weight")
		}
		total += v
	}
	out := make([]int, 0, k)
	for len(out) < k {
		if total <= 0 {
			panic("frand: WeightedChoice ran out of positive weight")
		}
		r := s.Float64() * total
		acc := 0.0
		pick := -1
		for i, v := range w {
			if v == 0 {
				continue
			}
			acc += v
			if r < acc {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Float round-off pushed r past the accumulated total; take the
			// last positive-weight index.
			for i := n - 1; i >= 0; i-- {
				if w[i] > 0 {
					pick = i
					break
				}
			}
		}
		out = append(out, pick)
		total -= w[pick]
		w[pick] = 0
	}
	return out
}

// PowerLawVec fills dst with integer sample counts drawn from a discrete
// power-law-like distribution over [min, max] (value v is proportional to
// v^(-alpha)) and returns it. The paper allocates "samples per device
// following a power law"; this is the sampler the dataset generators share,
// through data.PowerLawSizes (synthetic's fleet draws straight into its
// offset table). The inverse CDF's constants are computed once
// per call, so a draw costs one Pow.
func (s *Source) PowerLawVec(dst []int, min, max int, alpha float64) []int {
	if min <= 0 || max < min {
		panic("frand: PowerLawVec with invalid range")
	}
	// Inverse-CDF on the continuous Pareto, then clamp to the integer range.
	// At alpha = 1 (density 1/v) the Pareto form is 1^+Inf = 1, so the draw
	// is log-uniform instead.
	fmin, fmax, logUniform := float64(min), float64(max), alpha == 1
	lo := math.Pow(fmin, 1-alpha)
	span := math.Pow(fmax, 1-alpha) - lo
	exp, ratio := 1/(1-alpha), fmax/fmin
	for i := range dst {
		u := s.Float64()
		var v float64
		if logUniform {
			v = fmin * math.Pow(ratio, u)
		} else {
			v = math.Pow(lo+u*span, exp)
		}
		n := int(v)
		if n < min {
			n = min
		}
		if n > max {
			n = max
		}
		dst[i] = n
	}
	return dst
}

// Bernoulli returns true with probability p.
func (s *Source) Bernoulli(p float64) bool {
	return s.Float64() < p
}

// Categorical samples an index from the (unnormalized, non-negative)
// weights. It panics on an empty or all-zero weight vector.
func (s *Source) Categorical(weights []float64) int {
	total := 0.0
	for _, v := range weights {
		if v < 0 {
			panic("frand: Categorical with negative weight")
		}
		total += v
	}
	if total <= 0 {
		panic("frand: Categorical with no positive weight")
	}
	r := s.Float64() * total
	acc := 0.0
	for i, v := range weights {
		acc += v
		if r < acc {
			return i
		}
	}
	return len(weights) - 1
}
