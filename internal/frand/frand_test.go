package frand

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSplitDeterministicAndIndependent(t *testing.T) {
	root := New(7)
	a1 := root.Split("alpha")
	a2 := New(7).Split("alpha")
	if a1.Uint64() != a2.Uint64() {
		t.Fatal("Split is not deterministic")
	}
	b := root.Split("beta")
	if root.Split("alpha").Uint64() == b.Uint64() {
		t.Fatal("distinct labels produced identical streams")
	}
	// Splitting must not advance the parent.
	before := New(7)
	_ = before.Split("x")
	after := New(7)
	if before.Uint64() != after.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestSplitIndexDistinct(t *testing.T) {
	root := New(5)
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		v := root.SplitIndex(i).Uint64()
		if seen[v] {
			t.Fatalf("SplitIndex(%d) collided", i)
		}
		seen[v] = true
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	f := func(skip uint8) bool {
		for i := 0; i < int(skip); i++ {
			s.Uint64()
		}
		v := s.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Moments(t *testing.T) {
	s := New(11)
	const n = 200000
	sum, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Float64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Fatalf("uniform variance = %g, want ~%g", variance, 1.0/12)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %g, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %g, want ~1", variance)
	}
}

// TestNormGolden pins the first deviates of New(1) by their bits, so a
// change to the stream or to Box–Muller's arithmetic fails by name.
func TestNormGolden(t *testing.T) {
	want := []uint64{
		0xbfa18b7c84d5c3b6, // -0.034267321791851144
		0xc004002362ce87bd, // -2.5000674933698677
		0x3fb674facc896de5, // 0.08772246831488635
		0xc000379279a48e07, // -2.0271348479598177
		0x3fcca56e94386ddc, // 0.2237985824329901
		0xbfe9ad5854bf4fec, // -0.8024102835865938
		0xbff15027b0bec018, // -1.0820691017252155
		0x3fe10ddd22f8278a, // 0.5329423602099592
	}
	s := New(1)
	for i, w := range want {
		if got := math.Float64bits(s.Norm()); got != w {
			t.Errorf("deviate %d = %#016x, want %#016x", i, got, w)
		}
	}
}

// TestSkip: Skip(n) then Uint64 returns the (n+1)-th Uint64 of the
// stream, and two deviates skipped are the third Norm.
func TestSkip(t *testing.T) {
	for _, n := range []int{0, 1, 1000} {
		s, want := New(7), New(7)
		s.Skip(n)
		for range n {
			want.Uint64()
		}
		if got, w := s.Uint64(), want.Uint64(); got != w {
			t.Errorf("Skip(%d) then Uint64 = %#x, want the next value %#x", n, got, w)
		}
	}
	s, want := New(1), New(1)
	s.Skip(2 * 2)
	want.Norm()
	want.Norm()
	if got, w := s.Norm(), want.Norm(); math.Float64bits(got) != math.Float64bits(w) {
		t.Errorf("Norm after Skip(4) = %v, want the third deviate %v", got, w)
	}
}

func TestNormMeanStd(t *testing.T) {
	s := New(17)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.NormMeanStd(3, 0.5)
	}
	if mean := sum / n; math.Abs(mean-3) > 0.02 {
		t.Fatalf("mean = %g, want ~3", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(19)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := s.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntRangeInclusive(t *testing.T) {
	s := New(23)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := s.IntRange(1, 20)
		if v < 1 || v > 20 {
			t.Fatalf("IntRange(1,20) = %d", v)
		}
		seen[v] = true
	}
	if !seen[1] || !seen[20] {
		t.Fatal("IntRange never produced an endpoint in 1000 draws")
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(29)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		p := s.Perm(m)
		if len(p) != m {
			return false
		}
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceDistinct(t *testing.T) {
	s := New(31)
	f := func(a, b uint8) bool {
		n := int(a%40) + 1
		k := int(b) % (n + 1)
		c := s.Choice(n, k)
		if len(c) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range c {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceUniform(t *testing.T) {
	s := New(37)
	counts := make([]int, 10)
	const trials = 20000
	for i := 0; i < trials; i++ {
		for _, v := range s.Choice(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Fatalf("index %d chosen %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestWeightedChoiceBias(t *testing.T) {
	s := New(41)
	weights := []float64{1, 2, 4, 8}
	counts := make([]int, 4)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[s.WeightedChoice(weights, 1)[0]]++
	}
	// Heavier indices must be drawn strictly more often, roughly in ratio.
	for i := 1; i < 4; i++ {
		if counts[i] <= counts[i-1] {
			t.Fatalf("weighted counts not increasing: %v", counts)
		}
	}
	ratio := float64(counts[3]) / float64(counts[0])
	if ratio < 6 || ratio > 10 {
		t.Fatalf("weight-8/weight-1 ratio = %g, want ~8", ratio)
	}
}

func TestWeightedChoiceDistinct(t *testing.T) {
	s := New(43)
	weights := []float64{5, 1, 1, 1, 1}
	for i := 0; i < 500; i++ {
		c := s.WeightedChoice(weights, 5)
		seen := map[int]bool{}
		for _, v := range c {
			if seen[v] {
				t.Fatalf("duplicate in without-replacement draw: %v", c)
			}
			seen[v] = true
		}
	}
}

func TestWeightedChoicePanics(t *testing.T) {
	cases := []struct {
		w []float64
		k int
	}{
		{[]float64{1, 2}, 3},
		{[]float64{1, -1}, 1},
		{[]float64{0, 0}, 1},
	}
	for i, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			New(1).WeightedChoice(tc.w, tc.k)
		}()
	}
}

func TestPowerLawBounds(t *testing.T) {
	s := New(47)
	var v [1]int
	f := func(seed uint16) bool {
		s.PowerLawVec(v[:], 10, 500, 1.5)
		return v[0] >= 10 && v[0] <= 500
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawSkew(t *testing.T) {
	s := New(53)
	const n = 50000
	small, large := 0, 0
	var draw [1]int
	for i := 0; i < n; i++ {
		v := s.PowerLawVec(draw[:], 10, 1000, 2.0)[0]
		if v < 50 {
			small++
		}
		if v > 500 {
			large++
		}
	}
	if small < 10*large {
		t.Fatalf("power law not heavy near the minimum: small=%d large=%d", small, large)
	}
}

// TestPowerLawAlphaOne: at alpha = 1 the draws are log-uniform over
// [min, max], so they span the range and their median is near
// √(min·max), where the Pareto form returned min on every draw.
func TestPowerLawAlphaOne(t *testing.T) {
	s := New(54)
	const n = 10000
	v := make([]int, n)
	for i := range v {
		s.PowerLawVec(v[i:i+1], 10, 1000, 1)
		if v[i] < 10 || v[i] > 1000 {
			t.Fatalf("PowerLawVec(10, 1000, 1) = %d", v[i])
		}
	}
	slices.Sort(v)
	if v[0] > 11 || v[n-1] < 950 {
		t.Fatalf("draws span %d…%d, want about 10…1000", v[0], v[n-1])
	}
	if med := v[n/2]; med < 90 || med > 110 {
		t.Fatalf("median %d, want about √(10·1000) = 100", med)
	}
}

func TestBernoulliRate(t *testing.T) {
	s := New(59)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if rate := float64(hits) / n; math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %g", rate)
	}
}

func TestCategoricalBias(t *testing.T) {
	s := New(61)
	counts := make([]int, 3)
	for i := 0; i < 30000; i++ {
		counts[s.Categorical([]float64{1, 1, 2})]++
	}
	if counts[2] < counts[0] || counts[2] < counts[1] {
		t.Fatalf("categorical ignored weights: %v", counts)
	}
}

func TestCategoricalPanics(t *testing.T) {
	for i, w := range [][]float64{{}, {0, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	s := New(67)
	p := []int{1, 2, 3, 4, 5, 6, 7}
	s.Shuffle(p)
	sum := 0
	for _, v := range p {
		sum += v
	}
	if sum != 28 {
		t.Fatalf("shuffle changed elements: %v", p)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Norm()
	}
}

// powerLawPerDraw is the per-draw Pareto inverse CDF the generators'
// sizes came from before the batch form: both endpoints' powers and the
// exponent recomputed on every draw, the Pareto form evaluated even at
// alpha = 1. The batch form must reproduce it bit for bit.
func powerLawPerDraw(s *Source, min, max int, alpha float64) int {
	u := s.Float64()
	lo := math.Pow(float64(min), 1-alpha)
	hi := math.Pow(float64(max), 1-alpha)
	v := math.Pow(lo+u*(hi-lo), 1/(1-alpha))
	if alpha == 1 {
		v = float64(min) * math.Pow(float64(max)/float64(min), u)
	}
	n := int(v)
	if n < min {
		n = min
	}
	if n > max {
		n = max
	}
	return n
}

// TestPowerLawBatchMatchesPerDraw holds a batch of sizes and one-element
// draws to the per-draw formula, value for value, and the stream
// to the state the per-draw calls leave it in.
func TestPowerLawBatchMatchesPerDraw(t *testing.T) {
	for _, alpha := range []float64{0.5, 1, 1.55, 2.12} {
		for _, r := range [][2]int{{10, 20}, {18, 1100}, {7, 7}} {
			for _, n := range []int{0, 1, 1000} {
				batch, single, want := New(71), New(71), New(71)
				sizes := batch.PowerLawVec(make([]int, n), r[0], r[1], alpha)
				for i, got := range sizes {
					w := powerLawPerDraw(want, r[0], r[1], alpha)
					if got != w {
						t.Fatalf("alpha %g, [%d, %d], n %d: size %d = %d, per-draw formula %d", alpha, r[0], r[1], n, i, got, w)
					}
					if s := single.PowerLawVec(make([]int, 1), r[0], r[1], alpha)[0]; s != w {
						t.Fatalf("alpha %g, [%d, %d]: one-element draw %d = %d, per-draw formula %d", alpha, r[0], r[1], i, s, w)
					}
				}
				if batch.State() != want.State() || single.State() != want.State() {
					t.Fatalf("alpha %g, [%d, %d], n %d: stream state %x / %x, per-draw calls leave %x",
						alpha, r[0], r[1], n, batch.State(), single.State(), want.State())
				}
			}
		}
	}
}
