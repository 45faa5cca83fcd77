package solver

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/model/mlp"
)

// bitsDigest is a SHA-256 over the float64 bits of vs, in order.
func bitsDigest(vs ...float64) string {
	hash := sha256.New()
	for _, v := range vs {
		hash.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
	return fmt.Sprintf("%x", hash.Sum(nil))
}

// TestF32SolveDigests pins every float32 entry point of the package bit
// for bit, over linear and a one-hidden-layer mlp: SGD at batch sizes 10
// and 70 on 83 examples (both leave a ragged last batch, and 70 is more
// examples than linear's gradient keeps row headers for on its stack),
// GDSolver at two steps per epoch and Gamma at a point away from w0. The
// goldens are amd64 facts, like every other digest.
func TestF32SolveDigests(t *testing.T) {
	const dim, classes, n, epochs = 13, 5, 83, 3
	shape := &data.Federated{FeatureDim: dim, NumClasses: classes}
	rng := frand.New(31)
	train := make([]data.Example, n)
	for i := range train {
		train[i] = data.Example{X: rng.NormVec(make([]float64, dim), 0, 1), Y: rng.Intn(classes)}
	}
	cfg := at32(Config{LearningRate: 0.05, BatchSize: 10, Mu: 1})
	big := cfg
	big.BatchSize = 70
	for _, c := range []struct {
		name  string
		model model.Model
		want  [4]string // SGD at BatchSize 10, at 70, GDSolver, Gamma
	}{
		{"linear", linear.ForDataset(shape), [4]string{
			"d630bc100124e6757059defbfa2ef2a1c747dc362db23ed786d65d2e12f87828",
			"eb339ed7cdca1c61d168224a41ae8f6a8a9c256246b42a1ca0e207909f7bab31",
			"dd91ab4a894595aa518fa5ad0e84de91a8b3285ede7a1e21c9b2ef58f47eff3c",
			"a04cf75c42424b4e795bceff77fdc2eec9b8efa50ef9fea99a2b63bd533d3be5"}},
		{"mlp", mlp.ForDataset(shape, 7), [4]string{
			"534ef1b0598ad757ed073345ddfda2978ffe3f5f802b896b7fbd105470fc4c68",
			"7c6861f796ce931f20a684eb7128b8f31e2d4a4608e1347658acd0f0f705e0b9",
			"da92ebbabd73e477c4edb705b18ba2bc63e3a778167a7a94a8e546f3fdf85352",
			"5b492d2a10411df006d35a3436b9a6f22703bd55b701b708676c5bd72c6c86ce"}},
	} {
		m := c.model
		w0 := frand.New(6).NormVec(make([]float64, m.NumParams()), 0, 0.3)
		w := frand.New(8).NormVec(make([]float64, m.NumParams()), 0, 0.3)
		got := [4]string{
			bitsDigest(SGD(m, train, w0, cfg, epochs, frand.New(9))...),
			bitsDigest(SGD(m, train, w0, big, epochs, frand.New(9))...),
			bitsDigest(GDSolver{StepsPerEpoch: 2}.Solve(m, train, w0, cfg, epochs, nil)...),
			bitsDigest(Gamma(m, train, w, w0, cfg)),
		}
		for i, what := range []string{"SGD batch 10", "SGD batch 70", "GDSolver", "Gamma"} {
			if got[i] != c.want[i] {
				t.Errorf("%s %s: digest %s, want %s", c.name, what, got[i], c.want[i])
			}
		}
	}
}
