package tensor

import (
	"math"
	"testing"

	"fedprox/internal/frand"
)

// randT returns n standard normals at width T.
func randT[T Float](rng *frand.Source, n int) []T {
	return Converted[T](rng.NormVec(make([]float64, n), 0, 1))
}

// near reports whether got is within tol of want, relative to 1+|want|.
func near[T Float](got T, want, tol float64) bool {
	return math.Abs(float64(got)-want) <= tol*(1+math.Abs(want))
}

// TestKernelsMatchNaive checks every width-generic kernel against a
// naive float64 loop over the same inputs, at both widths, on shapes
// that reach every unrolled body and every tail: 1–3 weight rows (the
// two-row register block and its odd remainder), batches 1–9 (the
// four-example block and its remainders) and dims 1, 3, 4, 7 (the
// four-wide inner loop, below it, on it and past it).
func TestKernelsMatchNaive(t *testing.T) {
	t.Run("f32", func(t *testing.T) { kernelsMatchNaive[float32](t, 1e-5) })
	t.Run("f64", func(t *testing.T) { kernelsMatchNaive[float64](t, 1e-13) })
}

func kernelsMatchNaive[T Float](t *testing.T, tol float64) {
	rng := frand.New(31)
	for _, dim := range []int{1, 3, 4, 7} {
		a, b := randT[T](rng, dim), randT[T](rng, dim)
		var dot, sq float64
		for i := range a {
			dot += float64(a[i]) * float64(b[i])
			sq += (float64(a[i]) - float64(b[i])) * (float64(a[i]) - float64(b[i]))
		}
		if got := Dot(a, b); !near(got, dot, tol) {
			t.Errorf("Dot dim %d = %v, want %v", dim, got, dot)
		}
		if got := SqDist(a, b); !near(got, sq, tol) {
			t.Errorf("SqDist dim %d = %v, want %v", dim, got, sq)
		}
		if got := Norm2(a); !near(T(got*got), float64(Dot(a, a)), tol) {
			t.Errorf("Norm2 dim %d = %v, want sqrt %v", dim, got, Dot(a, a))
		}
		y := append([]T(nil), b...)
		Axpy(T(0.5), a, y)
		for i := range y {
			if want := float64(b[i]) + 0.5*float64(a[i]); !near(y[i], want, tol) {
				t.Errorf("Axpy dim %d [%d] = %v, want %v", dim, i, y[i], want)
			}
		}

		for rows := 1; rows <= 3; rows++ {
			for batch := 1; batch <= 9; batch++ {
				X := MatView(randT[T](rng, batch*dim), batch, dim) // examples, one per row
				W := MatView(randT[T](rng, rows*dim), rows, dim)   // weights
				P := MatView(randT[T](rng, batch*rows), batch, rows)
				bias := randT[T](rng, rows)

				for _, bs := range [][]T{nil, bias} {
					out := MatView(make([]T, batch*rows), batch, rows)
					MatMulNT(out, rowsOf(X), W, bs)
					for e := 0; e < batch; e++ {
						for r := 0; r < rows; r++ {
							want := 0.0
							if bs != nil {
								want = float64(bs[r])
							}
							for k := 0; k < dim; k++ {
								want += float64(X.At(e, k)) * float64(W.At(r, k))
							}
							if !near(out.At(e, r), want, tol) {
								t.Errorf("MatMulNT %dx%dx%d bias=%v [%d,%d] = %v, want %v", batch, rows, dim, bs != nil, e, r, out.At(e, r), want)
							}
						}
					}
				}

				back := MatView(make([]T, batch*dim), batch, dim)
				MatMul(back, P, W)
				for e := 0; e < batch; e++ {
					for k := 0; k < dim; k++ {
						want := 0.0
						for r := 0; r < rows; r++ {
							want += float64(P.At(e, r)) * float64(W.At(r, k))
						}
						if !near(back.At(e, k), want, tol) {
							t.Errorf("MatMul %dx%dx%d [%d,%d] = %v, want %v", batch, rows, dim, e, k, back.At(e, k), want)
						}
					}
				}

				G := MatView(append([]T(nil), W.Data...), rows, dim) // written over, not added to
				AddOuterPanel(G, T(0.25), P, rowsOf(X))
				for r := 0; r < rows; r++ {
					for k := 0; k < dim; k++ {
						want := 0.0
						for e := 0; e < batch; e++ {
							want += 0.25 * float64(P.At(e, r)) * float64(X.At(e, k))
						}
						if !near(G.At(r, k), want, tol) {
							t.Errorf("AddOuterPanel %dx%dx%d [%d,%d] = %v, want %v", batch, rows, dim, r, k, G.At(r, k), want)
						}
					}
				}
			}
		}

		// CrossEntropySoftmax in place, as linear and mlp call it: the
		// loss must be that of the logits, not of the probabilities that
		// overwrite them.
		for y := 0; y < dim; y++ {
			logits := randT[T](rng, dim)
			sum := 0.0
			for _, v := range logits {
				sum += math.Exp(float64(v))
			}
			wantLoss := math.Log(sum) - float64(logits[y])
			want := make([]float64, dim)
			for i, v := range logits {
				want[i] = math.Exp(float64(v)) / sum
			}
			if got := CrossEntropySoftmax(logits, logits, y); !near(got, wantLoss, tol) {
				t.Errorf("CrossEntropySoftmax dim %d y %d: loss %v, want %v", dim, y, got, wantLoss)
			}
			for i := range logits {
				if !near(logits[i], want[i], tol) {
					t.Errorf("CrossEntropySoftmax dim %d: p[%d] = %v, want %v", dim, i, logits[i], want[i])
				}
			}
		}
	}
}

// rowsOf returns m's rows, the examples of a batch kernel.
func rowsOf[T Float](m Matrix[T]) [][]T {
	xs := make([][]T, m.Rows)
	for e := range xs {
		xs[e] = m.Row(e)
	}
	return xs
}

// TestConvertRoundTrip: widening is exact, and narrowing a widened
// float32 returns the same bits — the identity the float64 interfaces
// over an f32 path rest on — across the unrolled body and its tail; a
// same-width Convert (the f64 panel gather) is a plain copy.
func TestConvertRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 8, 11} {
		src := randT[float32](frand.New(uint64(n)), n)
		wide := Converted[float64](src)
		back := Converted[float32](wide)
		same := Converted[float64](wide)
		for i := range src {
			if wide[i] != float64(src[i]) || back[i] != src[i] || same[i] != wide[i] {
				t.Fatalf("n=%d [%d]: %v -> %v -> %v (copied %v)", n, i, src[i], wide[i], back[i], same[i])
			}
		}
	}
}
