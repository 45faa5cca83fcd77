package model_test

import (
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/metrics"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
)

// correct is the count of batch's examples m predicts right at w, as
// metrics.ShardEval reports it for a shard whose test split is batch.
func correct(m model.Model, w []float64, batch []data.Example) int {
	_, c := metrics.ShardEval(m, w, &data.Shard{Test: batch})
	return c
}

func TestAccuracy(t *testing.T) {
	m := linear.New(2, 2)
	w := make([]float64, m.NumParams())
	w[2] = 10 // class-1 weight on x0: predict 1 iff x0 > 0
	batch := []data.Example{
		{X: []float64{1, 0}, Y: 1},
		{X: []float64{-1, 0}, Y: 0},
		{X: []float64{2, 0}, Y: 0},  // wrong
		{X: []float64{-2, 0}, Y: 1}, // wrong
	}
	if got := correct(m, w, batch); got != 2 {
		t.Fatalf("%d of 4 correct, want 2", got)
	}
}

func TestAccuracyEmptyBatch(t *testing.T) {
	m := linear.New(2, 2)
	if got := correct(m, make([]float64, m.NumParams()), nil); got != 0 {
		t.Fatalf("%d correct of an empty batch, want 0", got)
	}
}
