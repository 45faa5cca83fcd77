package comm

import (
	"fmt"
	"math"
	"sort"

	"fedprox/internal/tensor"
)

// topkCodec transmits only the k largest-magnitude coordinates of the
// link's transition params − prev. Sparsifying the full parameter vector
// would zero most of the model, so top-k inherently operates on the
// transition; the delta transform is built in rather than composed.
//
// When ef is set, coordinates the codec does not send accumulate in a
// per-link error-feedback residual that is added back before the next
// selection (Stich et al., "Sparsified SGD with Memory"), so no
// component of the update is ever permanently lost — only delayed. ef is
// for links whose base is one-shot (each round's prev is exact on both
// ends, e.g. an uplink against that round's broadcast). On a chained
// link (downlink, where prev is the last decoded transfer) the unsent
// mass stays inside the next transition automatically because prev lags
// by exactly that amount, and a residual would double-count it — see
// comm.Downlink.
type topkCodec struct {
	frac     float64
	ef       bool
	residual []float64
}

func (c *topkCodec) Name() string { return "topk" }

func (c *topkCodec) Encode(params, prev []float64) *Update {
	n := len(params)
	// d is the transition this call owes the peer: params − prev, plus
	// whatever earlier rounds left in the residual. It is pure scratch —
	// everything the Update carries is copied out of it.
	d := tensor.GetVec[float64](n)
	copy(d, params)
	if prev != nil {
		for i, p := range prev {
			d[i] -= p
		}
	}
	if c.ef {
		if c.residual == nil {
			c.residual = make([]float64, n)
		}
		for i, r := range c.residual {
			d[i] += r
		}
	}
	k := int(c.frac*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// Deterministic selection: magnitude descending, index ascending on
	// ties — a strict total order, so the selected set is unique and
	// both endpoints and repeated runs agree exactly. Quickselect keeps
	// this O(n) expected instead of sorting all n coordinates.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	selectTopK(d, order, k)
	sel := order[:k]
	sort.Ints(sel)

	u := &Update{
		Codec:   "topk",
		N:       n,
		Indices: make([]int32, k),
		Values:  tensor.GetVec[float64](k), // every entry is written below; Release recycles it
	}
	if c.ef {
		copy(c.residual, d)
	}
	for j, i := range sel {
		u.Indices[j] = int32(i)
		u.Values[j] = d[i]
		if c.ef {
			c.residual[i] = 0
		}
	}
	tensor.PutVec(d)
	return u
}

// selectTopK partially partitions order so that its first k entries are
// the k greatest coordinates under the strict total order "larger
// |d[i]| first, lower index on ties". Expected O(n) via quickselect
// with median-of-three pivots; the comparator is a total order, so the
// resulting k-set is unique regardless of pivot choices.
func selectTopK(d []float64, order []int, k int) {
	greater := func(a, b int) bool {
		da, db := math.Abs(d[a]), math.Abs(d[b])
		if da != db {
			return da > db
		}
		return a < b
	}
	lo, hi := 0, len(order)-1
	for lo < hi {
		// Median-of-three pivot, moved to the end for Lomuto partition.
		mid := lo + (hi-lo)/2
		if greater(order[mid], order[lo]) {
			order[mid], order[lo] = order[lo], order[mid]
		}
		if greater(order[hi], order[lo]) {
			order[hi], order[lo] = order[lo], order[hi]
		}
		if greater(order[mid], order[hi]) {
			order[mid], order[hi] = order[hi], order[mid]
		}
		pivot := order[hi]
		p := lo
		for i := lo; i < hi; i++ {
			if greater(order[i], pivot) {
				order[i], order[p] = order[p], order[i]
				p++
			}
		}
		order[p], order[hi] = order[hi], order[p]
		switch {
		case p == k-1:
			return
		case p > k-1:
			hi = p - 1
		default:
			lo = p + 1
		}
	}
}

func (c *topkCodec) Decode(u *Update, prev []float64) ([]float64, error) {
	if err := check(u, "topk", prev); err != nil {
		return nil, err
	}
	if len(u.Indices) != len(u.Values) {
		return nil, fmt.Errorf("comm: topk has %d indices but %d values", len(u.Indices), len(u.Values))
	}
	out := tensor.GetVec[float64](u.N)
	if prev != nil {
		copy(out, prev)
	} else {
		tensor.Zero(out)
	}
	for j, i := range u.Indices {
		if i < 0 || int(i) >= u.N {
			tensor.PutVec(out)
			return nil, fmt.Errorf("comm: topk index %d outside [0,%d)", i, u.N)
		}
		out[i] += u.Values[j]
	}
	return out, nil
}
