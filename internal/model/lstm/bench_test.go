package lstm

import (
	"testing"

	"fedprox/internal/frand"
)

func benchModel(hidden int) (*Model, []float64) {
	m := newModel(Config{Vocab: 80, Embed: 8, Hidden: hidden, Layers: 2, Classes: 80})
	return m, m.InitParams(frand.New(1))
}

func BenchmarkForwardH32(b *testing.B) {
	m, w := benchModel(32)
	batch := randSeqBatch(frand.New(2), 10, 20, 80, 80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Loss(w, batch)
	}
}

func BenchmarkGradH32(b *testing.B) {
	m, w := benchModel(32)
	batch := randSeqBatch(frand.New(2), 10, 20, 80, 80)
	grad := make([]float64, m.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(grad, w, batch)
	}
}

func BenchmarkGradH100PaperShape(b *testing.B) {
	// The paper's Shakespeare model: 2-layer LSTM, 100 hidden units,
	// 8-dim embedding, 80-char sequences.
	m, w := benchModel(100)
	batch := randSeqBatch(frand.New(2), 10, 80, 80, 80)
	grad := make([]float64, m.NumParams())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Grad(grad, w, batch)
	}
}
