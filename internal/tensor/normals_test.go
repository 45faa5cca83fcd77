package tensor

import (
	"math"
	"testing"

	"fedprox/internal/frand"
)

// TestNormalsMatchNorm: Normals writes exactly the values successive Norm
// calls return, by their bits, touches nothing either side of dst, and
// leaves the stream where those calls would, at every length around the
// strip's four-lane step (its padded tail included; 11 is the Dim-10
// fleet's model block) and its stack block, on whichever path this
// machine runs.
func TestNormalsMatchNorm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 11, 63, 64, 65, 255, 256, 257, 258, 259, 784, 1000} {
		buf := make([]float64, n+2)
		for seed := uint64(0); seed < 2000; seed++ {
			buf[0], buf[n+1] = canary, canary
			got, want := frand.New(seed), frand.New(seed)
			Normals(buf[1:n+1], got)
			for i, v := range buf[1 : n+1] {
				if w := want.Norm(); math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("seed %d, n %d: value %d = %v (%#x), Norm gives %v (%#x)", seed, n, i, v, math.Float64bits(v), w, math.Float64bits(w))
				}
			}
			if buf[0] != canary || buf[n+1] != canary {
				t.Fatalf("seed %d, n %d: a canary beside dst was written", seed, n)
			}
			if got.State() != want.State() {
				t.Fatalf("seed %d, n %d: stream at %#x, Norm leaves it at %#x", seed, n, got.State(), want.State())
			}
		}
	}
}

// BenchmarkNormals reports ns per deviate over one MNIST-sized image, for
// comparison with frand's BenchmarkNorm (one deviate per op).
func BenchmarkNormals(b *testing.B) {
	rng, dst := frand.New(1), make([]float64, 784)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Normals(dst, rng)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/deviate")
}
