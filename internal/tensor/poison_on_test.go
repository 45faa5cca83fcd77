//go:build poolpoison

package tensor

import (
	"math"
	"testing"
)

// TestPutVecPoisons keeps the poolpoison tag honest: the parity suites CI
// runs under it prove nothing unless a vector handed to PutVec really
// reads as NaN afterwards, at both widths and over its whole capacity.
func TestPutVecPoisons(t *testing.T) {
	v64, v32 := make([]float64, 8, 12), make([]float32, 8, 12)
	PutVec(v64[:3])
	PutVec(v32[:3])
	for i := range v64[:12] {
		if !math.IsNaN(v64[:12][i]) || !math.IsNaN(float64(v32[:12][i])) {
			t.Fatalf("element %d survived PutVec: %v %v", i, v64[:12][i], v32[:12][i])
		}
	}
}
