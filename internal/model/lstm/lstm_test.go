package lstm

import (
	"math"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/frand"
)

func smallModel() *Model {
	return newModel(Config{Vocab: 7, Embed: 3, Hidden: 4, Layers: 2, Classes: 5})
}

func randSeqBatch(rng *frand.Source, n, seqLen, vocab, classes int) []data.Example {
	out := make([]data.Example, n)
	for i := range out {
		seq := make([]int, seqLen)
		for t := range seq {
			seq[t] = rng.Intn(vocab)
		}
		out[i] = data.Example{Seq: seq, Y: rng.Intn(classes)}
	}
	return out
}

func TestNumParamsLayout(t *testing.T) {
	m := smallModel()
	// E: 7*3; layer0: 4*4*3 + 4*4*4 + 4*4; layer1: 4*4*4 + 4*4*4 + 4*4;
	// head: 5*4 + 5.
	want := 21 + (48 + 64 + 16) + (64 + 64 + 16) + 20 + 5
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	bad := []Config{
		{Vocab: 1, Embed: 2, Hidden: 2, Layers: 1, Classes: 2},
		{Vocab: 5, Embed: 0, Hidden: 2, Layers: 1, Classes: 2},
		{Vocab: 5, Embed: 2, Hidden: 0, Layers: 1, Classes: 2},
		{Vocab: 5, Embed: 2, Hidden: 2, Layers: 0, Classes: 2},
		{Vocab: 5, Embed: 2, Hidden: 2, Layers: 1, Classes: 1},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: newModel(%+v) did not panic", i, cfg)
				}
			}()
			newModel(cfg)
		}()
	}
}

func TestForgetGateBiasInit(t *testing.T) {
	m := smallModel()
	w := m.InitParams(frand.New(3))
	H := m.cfg.Hidden
	for l, lo := range m.layers {
		for j := 0; j < H; j++ {
			if got := w[lo.b+H+j]; got != 1 {
				t.Fatalf("layer %d forget bias[%d] = %g, want 1", l, j, got)
			}
			if got := w[lo.b+j]; got != 0 {
				t.Fatalf("layer %d input bias[%d] = %g, want 0", l, j, got)
			}
		}
	}
}

// TestGradMatchesNumerical is the load-bearing test of the BPTT
// implementation: every coordinate of the analytic gradient must match
// central finite differences.
func TestGradMatchesNumerical(t *testing.T) {
	rng := frand.New(17)
	m := smallModel()
	batch := randSeqBatch(rng, 3, 6, m.cfg.Vocab, m.cfg.Classes)
	w := m.InitParams(rng)
	grad := make([]float64, m.NumParams())
	m.Grad(grad, w, batch)

	const h = 1e-5
	maxRel := 0.0
	for i := 0; i < m.NumParams(); i++ {
		orig := w[i]
		w[i] = orig + h
		up := m.Loss(w, batch)
		w[i] = orig - h
		down := m.Loss(w, batch)
		w[i] = orig
		num := (up - down) / (2 * h)
		diff := math.Abs(num - grad[i])
		rel := diff / (1 + math.Abs(num))
		if rel > maxRel {
			maxRel = rel
		}
		if rel > 2e-4 {
			t.Fatalf("grad[%d] = %g, numerical %g (rel %g)", i, grad[i], num, rel)
		}
	}
	t.Logf("max relative gradient error: %g", maxRel)
}

func TestGradReturnsLoss(t *testing.T) {
	rng := frand.New(19)
	m := smallModel()
	batch := randSeqBatch(rng, 4, 5, m.cfg.Vocab, m.cfg.Classes)
	w := m.InitParams(rng)
	grad := make([]float64, m.NumParams())
	gl := m.Grad(grad, w, batch)
	l := m.Loss(w, batch)
	if math.Abs(gl-l) > 1e-12 {
		t.Fatalf("Grad loss %g != Loss %g", gl, l)
	}
}

func TestVariableSequenceLengths(t *testing.T) {
	rng := frand.New(23)
	m := smallModel()
	// Mixed lengths in one batch exercise the trace-reuse path.
	batch := []data.Example{
		randSeqBatch(rng, 1, 9, m.cfg.Vocab, m.cfg.Classes)[0],
		randSeqBatch(rng, 1, 3, m.cfg.Vocab, m.cfg.Classes)[0],
		randSeqBatch(rng, 1, 7, m.cfg.Vocab, m.cfg.Classes)[0],
	}
	w := m.InitParams(rng)
	grad := make([]float64, m.NumParams())
	loss := m.Grad(grad, w, batch)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g", loss)
	}
	// Mean of per-example losses must equal batch loss.
	sum := 0.0
	for _, ex := range batch {
		sum += m.Loss(w, []data.Example{ex})
	}
	if math.Abs(sum/3-loss) > 1e-12 {
		t.Fatalf("batch loss %g != mean of singles %g", loss, sum/3)
	}
}

func TestEmptyBatch(t *testing.T) {
	m := smallModel()
	w := m.InitParams(frand.New(1))
	grad := make([]float64, m.NumParams())
	grad[5] = 42
	if l := m.Grad(grad, w, nil); l != 0 {
		t.Fatalf("Grad(empty) = %g, want 0", l)
	}
	if grad[5] != 0 {
		t.Fatal("Grad(empty) did not zero the buffer")
	}
}

// TestLearnsMajorityToken checks end-to-end learnability: sequences whose
// label is determined by their dominant token should be fit by a few
// hundred SGD steps.
func TestLearnsMajorityToken(t *testing.T) {
	rng := frand.New(29)
	m := newModel(Config{Vocab: 4, Embed: 4, Hidden: 8, Layers: 1, Classes: 2})
	var batch []data.Example
	for i := 0; i < 60; i++ {
		y := i % 2
		seq := make([]int, 6)
		for t := range seq {
			if rng.Bernoulli(0.8) {
				seq[t] = y // token identity leaks the label
			} else {
				seq[t] = 2 + rng.Intn(2)
			}
		}
		batch = append(batch, data.Example{Seq: seq, Y: y})
	}
	w := m.InitParams(rng)
	grad := make([]float64, m.NumParams())
	first := m.Loss(w, batch)
	for step := 0; step < 300; step++ {
		m.Grad(grad, w, batch)
		for i := range w {
			w[i] -= 0.5 * grad[i]
		}
	}
	last := m.Loss(w, batch)
	if last > first/2 {
		t.Fatalf("loss barely moved: %g -> %g", first, last)
	}
	correct := 0
	labels := make([]int, len(batch))
	m.Predict(w, batch, labels)
	for e, ex := range batch {
		if labels[e] == ex.Y {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(batch)); acc < 0.9 {
		t.Fatalf("training accuracy = %g, want >= 0.9", acc)
	}
}

func TestDeterministicForward(t *testing.T) {
	rng := frand.New(31)
	m := smallModel()
	batch := randSeqBatch(rng, 2, 5, m.cfg.Vocab, m.cfg.Classes)
	w := m.InitParams(rng)
	l1 := m.Loss(w, batch)
	l2 := m.Loss(w, batch)
	if l1 != l2 {
		t.Fatalf("Loss not deterministic: %g vs %g", l1, l2)
	}
}

func TestForDatasetShapes(t *testing.T) {
	fed := &data.Federated{
		Name: "seq", NumClasses: 3, VocabSize: 11, SeqLen: 4,
		Shards: []*data.Shard{{Train: []data.Example{{Seq: []int{0, 1, 2, 3}, Y: 0}}}},
	}
	m := ForDataset(fed, 5, 6, 2)
	if m.Config().Vocab != 11 || m.Config().Classes != 3 {
		t.Fatalf("ForDataset shape mismatch: %+v", m.Config())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ForDataset on dense dataset did not panic")
		}
	}()
	ForDataset(&data.Federated{FeatureDim: 5, NumClasses: 2}, 2, 2, 1)
}
