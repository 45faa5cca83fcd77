package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"fedprox/internal/frand"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func randVec(rng *frand.Source, n int) Vec {
	return rng.NormVec(make(Vec, n), 0, 1)
}

func TestDotBasics(t *testing.T) {
	if got := Dot(Vec{1, 2, 3}, Vec{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
}

func TestDotSymmetryProperty(t *testing.T) {
	rng := frand.New(1)
	f := func(n uint8) bool {
		m := int(n%20) + 1
		a, b := randVec(rng, m), randVec(rng, m)
		return almostEq(Dot(a, b), Dot(b, a), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCauchySchwarzProperty(t *testing.T) {
	rng := frand.New(2)
	f := func(n uint8) bool {
		m := int(n%20) + 1
		a, b := randVec(rng, m), randVec(rng, m)
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot with mismatched lengths did not panic")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestSqDistMatchesNorm(t *testing.T) {
	rng := frand.New(3)
	f := func(n uint8) bool {
		m := int(n%20) + 1
		a, b := randVec(rng, m), randVec(rng, m)
		d := make(Vec, m)
		Sub(d, a, b)
		return almostEq(SqDist(a, b), Dot(d, d), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAxpyScaleAddSub(t *testing.T) {
	y := Vec{1, 2, 3}
	Axpy(2, Vec{1, 1, 1}, y)
	if y[0] != 3 || y[1] != 4 || y[2] != 5 {
		t.Fatalf("Axpy: %v", y)
	}
	Scale(0.5, y)
	if y[0] != 1.5 || y[2] != 2.5 {
		t.Fatalf("Scale: %v", y)
	}
	dst := Vec{5, 7, 9}
	Sub(dst, dst, dst)
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("aliased Sub: %v", dst)
	}
	AddScaled(dst, Vec{1, 1, 1}, -2, Vec{1, 2, 3})
	if dst[0] != -1 || dst[2] != -5 {
		t.Fatalf("AddScaled: %v", dst)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := Vec{1, 2}
	b := Clone(a)
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestMeanAndWeightedMean(t *testing.T) {
	vs := []Vec{{1, 2}, {3, 4}, {5, 6}}
	dst := make(Vec, 2)
	Mean(dst, vs)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("Mean: %v", dst)
	}
	WeightedMean(dst, vs, []float64{1, 0, 1})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("WeightedMean: %v", dst)
	}
	WeightedMean(dst, vs, []float64{1, 0, 0})
	if dst[0] != 1 || dst[1] != 2 {
		t.Fatalf("WeightedMean single: %v", dst)
	}
}

func TestWeightedMeanEqualWeightsIsMean(t *testing.T) {
	rng := frand.New(5)
	f := func(n uint8) bool {
		k := int(n%5) + 1
		vs := make([]Vec, k)
		ws := make([]float64, k)
		for i := range vs {
			vs[i] = randVec(rng, 4)
			ws[i] = 2.5
		}
		m1, m2 := make(Vec, 4), make(Vec, 4)
		Mean(m1, vs)
		WeightedMean(m2, vs, ws)
		for j := range m1 {
			if !almostEq(m1[j], m2[j], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean of nothing did not panic")
		}
	}()
	Mean(make(Vec, 1), nil)
}

func TestWeightedMeanPanics(t *testing.T) {
	cases := []struct {
		vs []Vec
		ws []float64
	}{
		{nil, nil},
		{[]Vec{{1}}, []float64{1, 2}},
		{[]Vec{{1}}, []float64{0}},
		{[]Vec{{1}}, []float64{-1}},
	}
	for i, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			WeightedMean(make(Vec, 1), tc.vs, tc.ws)
		}()
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	rng := frand.New(7)
	f := func(n uint8) bool {
		m := int(n%10) + 2
		logits := randVec(rng, m)
		Scale(50, logits) // stress stability
		p := make(Vec, m)
		Softmax(p, logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := Vec{1, 2, 3}
	b := Vec{101, 102, 103}
	pa, pb := make(Vec, 3), make(Vec, 3)
	Softmax(pa, a)
	Softmax(pb, b)
	for i := range pa {
		if !almostEq(pa[i], pb[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", pa, pb)
		}
	}
}

func TestLogSumExpStable(t *testing.T) {
	v := Vec{1000, 1000}
	want := 1000 + math.Log(2)
	if got := LogSumExp(v); !almostEq(got, want, 1e-9) {
		t.Fatalf("LogSumExp = %g, want %g", got, want)
	}
	if got := LogSumExp(Vec{-1000, -1000}); !almostEq(got, -1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp underflow: %g", got)
	}
}

// TestLogSumExpBits holds LogSumExp to the two-pass formula that calls
// Exp on every term, bit for bit: on random vectors, with ties at the
// maximum, single elements, −Inf entries, +Inf and NaN. The skipped call
// is Exp(0), which is exactly 1.
func TestLogSumExpBits(t *testing.T) {
	if math.Exp(0) != 1 {
		t.Fatalf("math.Exp(0) = %v, want exactly 1", math.Exp(0))
	}
	twoPass := func(v Vec) float64 {
		max := v[0]
		for _, x := range v[1:] {
			if x > max {
				max = x
			}
		}
		sum := 0.0
		for _, x := range v {
			sum += math.Exp(x - max)
		}
		return max + math.Log(sum)
	}
	inf, nan := math.Inf(1), math.NaN()
	cases := []Vec{
		{0}, {-3.5}, {inf}, {-inf}, {nan},
		{2, 2}, {1, 3, 3, -1}, {-1000, -1000, -1000},
		{-inf, 0.5, -inf}, {-inf, -inf}, {1, inf, 2}, {inf, inf}, {-2, nan, 4}, {nan, 1}, {inf, -inf},
	}
	rng := frand.New(3)
	for n := 1; n <= 40; n++ {
		for range 50 {
			v := randVec(rng, n)
			if rng.Float64() < 0.5 { // a tie at the maximum
				v[rng.Intn(n)] = v[ArgMax(v)]
			}
			cases = append(cases, v)
		}
	}
	for _, v := range cases {
		if got, want := LogSumExp(v), twoPass(v); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("LogSumExp(%v) = %v (%#x), two-pass %v (%#x)", v, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestArgMax(t *testing.T) {
	if got := ArgMax(Vec{1, 5, 3}); got != 1 {
		t.Fatalf("ArgMax = %d", got)
	}
	if got := ArgMax(Vec{2, 2, 2}); got != 0 {
		t.Fatalf("ArgMax tie = %d, want first index", got)
	}
}

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Fatalf("Sigmoid(0) = %g", got)
	}
	if got := Sigmoid(1000); got != 1 {
		t.Fatalf("Sigmoid(1000) = %g", got)
	}
	if got := Sigmoid(-1000); got != 0 {
		t.Fatalf("Sigmoid(-1000) = %g", got)
	}
	// Symmetry: σ(−x) = 1 − σ(x).
	for _, x := range []float64{0.5, 2, 7} {
		if !almostEq(Sigmoid(-x), 1-Sigmoid(x), 1e-12) {
			t.Fatalf("sigmoid symmetry broken at %g", x)
		}
	}
}

func TestMatViewAndAccessors(t *testing.T) {
	m := MatView(Vec{1, 2, 3, 4, 5, 6}, 2, 3)
	if m.At(1, 2) != 6 {
		t.Fatalf("At = %g", m.At(1, 2))
	}
	m.Set(0, 1, 9)
	if m.Data[1] != 9 {
		t.Fatal("Set did not write through")
	}
	row := m.Row(1)
	row[0] = -1
	if m.At(1, 0) != -1 {
		t.Fatal("Row is not a view")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MatView with wrong size did not panic")
		}
	}()
	MatView(Vec{1, 2, 3}, 2, 2)
}

func TestMatVecAgainstNaive(t *testing.T) {
	rng := frand.New(11)
	f := func(a, b uint8) bool {
		r := int(a%8) + 1
		c := int(b%8) + 1
		m := NewMat(r, c)
		rng.NormVec(m.Data, 0, 1)
		x := randVec(rng, c)
		got := make(Vec, r)
		MatVec(got, m, x)
		for i := 0; i < r; i++ {
			want := 0.0
			for j := 0; j < c; j++ {
				want += m.At(i, j) * x[j]
			}
			if !almostEq(got[i], want, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddOuterRankOne(t *testing.T) {
	m := NewMat(2, 3)
	AddOuter(m, 2, Vec{1, 2}, Vec{3, 4, 5})
	if m.At(0, 0) != 6 || m.At(1, 2) != 20 {
		t.Fatalf("AddOuter: %v", m.Data)
	}
	// alpha·y[i] == 0 fast path must not corrupt other rows.
	AddOuter(m, 1, Vec{0, 1}, Vec{1, 1, 1})
	if m.At(0, 0) != 6 || m.At(1, 0) != 13 {
		t.Fatalf("AddOuter zero row: %v", m.Data)
	}
}

func TestMatShapePanics(t *testing.T) {
	m := NewMat(2, 3)
	for i, fn := range []func(){
		func() { MatVec(make(Vec, 3), m, make(Vec, 3)) },
		func() { MatVec(make(Vec, 2), m, make(Vec, 2)) },
		func() { AddOuter(m, 1, make(Vec, 3), make(Vec, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestMatVecAddCombines(t *testing.T) {
	m := MatView(Vec{1, 0, 0, 1}, 2, 2)
	dst := make(Vec, 2)
	MatVecAdd(dst, m, Vec{3, 4}, Vec{10, 20})
	if dst[0] != 13 || dst[1] != 24 {
		t.Fatalf("MatVecAdd: %v", dst)
	}
}

func TestZeroFill(t *testing.T) {
	v := Vec{1, 2, 3}
	Zero(v)
	if v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Fatalf("Zero: %v", v)
	}
}

func BenchmarkDot1k(b *testing.B) {
	rng := frand.New(1)
	x, y := randVec(rng, 1024), randVec(rng, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dot(x, y)
	}
}

func BenchmarkMatVec128(b *testing.B) {
	rng := frand.New(1)
	m := NewMat(128, 128)
	rng.NormVec(m.Data, 0, 1)
	x := randVec(rng, 128)
	dst := make(Vec, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(dst, m, x)
	}
}
