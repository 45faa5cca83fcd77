// Package lstm implements the paper's non-convex workloads: a learned
// embedding feeding a stack of LSTM layers and a dense softmax head, with
// a full manual backward pass (backpropagation through time).
//
// The same architecture serves both of the paper's sequence tasks: 2-layer
// LSTM next-character prediction on Shakespeare (80-class head) and
// 2-layer LSTM binary sentiment classification on Sent140 (Section 5.1,
// Appendix C.1). Both tasks read the final hidden state of the top layer
// into the classification head.
//
// Parameters are flat, in the layout
//
//	[ E (V×D) | layer 0: Wx (4H×D), Wh (4H×H), b (4H) |
//	  layer l>0: Wx (4H×H), Wh (4H×H), b (4H) | ... | Wo (C×H) | bo (C) ]
//
// with gate rows ordered [input; forget; cell; output] inside each 4H
// block.
package lstm

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/tensor"
)

// Config describes the network shape.
type Config struct {
	// Vocab is the token vocabulary size (V).
	Vocab int
	// Embed is the embedding dimension (D). The paper uses 8 for
	// Shakespeare and pretrained 300-d GloVe for Sent140; here both are
	// learned (the offline constraint; see imagesim's package comment).
	Embed int
	// Hidden is the per-layer hidden size (H). Paper: 100 (Shakespeare),
	// 256 (Sent140).
	Hidden int
	// Layers is the LSTM stack depth. Paper: 2 for both tasks.
	Layers int
	// Classes is the output label count (80 for next-char, 2 for
	// sentiment).
	Classes int
}

// Model is an embedding + stacked-LSTM + softmax classifier.
type Model struct {
	cfg Config
	// Cached offsets into the flat parameter vector.
	embOff  int
	layers  []layerOffsets
	woOff   int
	boOff   int
	nParams int
}

type layerOffsets struct {
	wx, wh, b int
	in        int // input width for this layer (D or H)
}

var _ model.Model = (*Model)(nil)

// newModel returns an LSTM model for the given configuration.
func newModel(cfg Config) *Model {
	if cfg.Vocab <= 1 || cfg.Embed <= 0 || cfg.Hidden <= 0 || cfg.Layers <= 0 || cfg.Classes <= 1 {
		panic("lstm: invalid config")
	}
	m := &Model{cfg: cfg}
	off := 0
	m.embOff = off
	off += cfg.Vocab * cfg.Embed
	in := cfg.Embed
	for l := 0; l < cfg.Layers; l++ {
		lo := layerOffsets{in: in}
		lo.wx = off
		off += 4 * cfg.Hidden * in
		lo.wh = off
		off += 4 * cfg.Hidden * cfg.Hidden
		lo.b = off
		off += 4 * cfg.Hidden
		m.layers = append(m.layers, lo)
		in = cfg.Hidden
	}
	m.woOff = off
	off += cfg.Classes * cfg.Hidden
	m.boOff = off
	off += cfg.Classes
	m.nParams = off
	return m
}

// ForDataset returns a model sized for a sequence federated dataset with
// the given embedding/hidden shape.
func ForDataset(f *data.Federated, embed, hidden, layers int) *Model {
	if f.VocabSize == 0 {
		panic("lstm: dataset is not a sequence task")
	}
	return newModel(Config{
		Vocab:   f.VocabSize,
		Embed:   embed,
		Hidden:  hidden,
		Layers:  layers,
		Classes: f.NumClasses,
	})
}

// Config returns the network shape.
func (m *Model) Config() Config { return m.cfg }

// NumParams returns the flat parameter count.
func (m *Model) NumParams() int { return m.nParams }

// InitParams returns Glorot-style initialized parameters with the forget-
// gate bias set to 1 (the standard trick to keep early gradients flowing).
func (m *Model) InitParams(rng *frand.Source) []float64 {
	w := make([]float64, m.nParams)
	H := m.cfg.Hidden
	// Embedding: small normal.
	rng.NormVec(w[m.embOff:m.embOff+m.cfg.Vocab*m.cfg.Embed], 0, 0.1)
	for _, lo := range m.layers {
		sx := 1 / math.Sqrt(float64(lo.in))
		sh := 1 / math.Sqrt(float64(H))
		rng.NormVec(w[lo.wx:lo.wx+4*H*lo.in], 0, sx)
		rng.NormVec(w[lo.wh:lo.wh+4*H*H], 0, sh)
		for i := 0; i < H; i++ {
			w[lo.b+H+i] = 1 // forget gate bias
		}
	}
	so := 1 / math.Sqrt(float64(H))
	rng.NormVec(w[m.woOff:m.woOff+m.cfg.Classes*H], 0, so)
	return w
}

// views over a flat vector (parameters or gradient).
type views struct {
	emb tensor.Mat // V×D
	wx  []tensor.Mat
	wh  []tensor.Mat
	b   [][]float64
	wo  tensor.Mat // C×H
	bo  []float64
}

func (m *Model) view(w []float64) views {
	if len(w) != m.nParams {
		panic("lstm: parameter vector size mismatch")
	}
	H := m.cfg.Hidden
	v := views{
		emb: tensor.MatView(w[m.embOff:m.embOff+m.cfg.Vocab*m.cfg.Embed], m.cfg.Vocab, m.cfg.Embed),
		wo:  tensor.MatView(w[m.woOff:m.woOff+m.cfg.Classes*H], m.cfg.Classes, H),
		bo:  w[m.boOff : m.boOff+m.cfg.Classes],
	}
	for _, lo := range m.layers {
		v.wx = append(v.wx, tensor.MatView(w[lo.wx:lo.wx+4*H*lo.in], 4*H, lo.in))
		v.wh = append(v.wh, tensor.MatView(w[lo.wh:lo.wh+4*H*H], 4*H, H))
		v.b = append(v.b, w[lo.b:lo.b+4*H])
	}
	return v
}

// trace holds the forward activations one example needs for BPTT.
type trace struct {
	// Per layer, per timestep.
	x    [][][]float64 // layer input at time t
	i    [][][]float64
	f    [][][]float64
	g    [][][]float64
	o    [][][]float64
	c    [][][]float64
	tanc [][][]float64 // tanh(c)
	h    [][][]float64
}

func newTrace(layers, steps, hidden int, inWidths []int) *trace {
	alloc3 := func(width func(l int) int) [][][]float64 {
		out := make([][][]float64, layers)
		for l := range out {
			out[l] = make([][]float64, steps)
			for t := range out[l] {
				out[l][t] = make([]float64, width(l))
			}
		}
		return out
	}
	hid := func(int) int { return hidden }
	return &trace{
		x:    alloc3(func(l int) int { return inWidths[l] }),
		i:    alloc3(hid),
		f:    alloc3(hid),
		g:    alloc3(hid),
		o:    alloc3(hid),
		c:    alloc3(hid),
		tanc: alloc3(hid),
		h:    alloc3(hid),
	}
}

// forward runs the network on one sequence and returns class logits. When
// tr is non-nil the activations are recorded for the backward pass.
func (m *Model) forward(v views, seq []int, tr *trace, logits []float64) {
	H := m.cfg.Hidden
	steps := len(seq)
	gates := make([]float64, 4*H)
	hPrev := make([][]float64, m.cfg.Layers)
	cPrev := make([][]float64, m.cfg.Layers)
	for l := range hPrev {
		hPrev[l] = make([]float64, H)
		cPrev[l] = make([]float64, H)
	}
	in := make([]float64, m.cfg.Embed)
	for t := 0; t < steps; t++ {
		copy(in, v.emb.Row(seq[t]))
		x := in
		for l := 0; l < m.cfg.Layers; l++ {
			tensor.MatVec(gates, v.wx[l], x)
			// gates += Wh·hPrev + b
			wh := v.wh[l]
			for r := 0; r < 4*H; r++ {
				row := wh.Row(r)
				s := gates[r] + v.b[l][r]
				hp := hPrev[l]
				for j, vv := range row {
					s += vv * hp[j]
				}
				gates[r] = s
			}
			var it, ft, gt, ot, ct, tct, ht []float64
			if tr != nil {
				it, ft, gt, ot = tr.i[l][t], tr.f[l][t], tr.g[l][t], tr.o[l][t]
				ct, tct, ht = tr.c[l][t], tr.tanc[l][t], tr.h[l][t]
				copy(tr.x[l][t], x)
			} else {
				it = make([]float64, H)
				ft, gt, ot = make([]float64, H), make([]float64, H), make([]float64, H)
				ct, tct, ht = make([]float64, H), make([]float64, H), make([]float64, H)
			}
			for j := 0; j < H; j++ {
				it[j] = tensor.Sigmoid(gates[j])
				ft[j] = tensor.Sigmoid(gates[H+j])
				gt[j] = tensor.Tanh(gates[2*H+j])
				ot[j] = tensor.Sigmoid(gates[3*H+j])
				ct[j] = ft[j]*cPrev[l][j] + it[j]*gt[j]
				tct[j] = tensor.Tanh(ct[j])
				ht[j] = ot[j] * tct[j]
			}
			copy(cPrev[l], ct)
			copy(hPrev[l], ht)
			x = ht
		}
	}
	top := hPrev[m.cfg.Layers-1]
	tensor.MatVecAdd(logits, v.wo, top, v.bo)
}

// Loss returns mean cross-entropy over the batch.
func (m *Model) Loss(w []float64, batch []data.Example) float64 {
	if len(batch) == 0 {
		return 0
	}
	v := m.view(w)
	logits := make([]float64, m.cfg.Classes)
	total := 0.0
	for _, ex := range batch {
		m.forward(v, ex.Seq, nil, logits)
		total += tensor.LogSumExp(logits) - logits[ex.Y]
	}
	return total / float64(len(batch))
}

// Predict writes each example's argmax class into dst.
func (m *Model) Predict(w []float64, batch []data.Example, dst []int) {
	if len(dst) != len(batch) {
		panic("lstm: Predict needs one label slot per example")
	}
	v := m.view(w)
	logits := make([]float64, m.cfg.Classes)
	for e, ex := range batch {
		m.forward(v, ex.Seq, nil, logits)
		dst[e] = tensor.ArgMax(logits)
	}
}

// Grad writes the mean cross-entropy gradient over the batch into dst and
// returns the mean loss. The backward pass is exact BPTT over the full
// sequence.
func (m *Model) Grad(dst, w []float64, batch []data.Example) float64 {
	if len(dst) != m.nParams {
		panic("lstm: gradient buffer size mismatch")
	}
	tensor.Zero(dst)
	if len(batch) == 0 {
		return 0
	}
	v := m.view(w)
	g := m.view(dst)
	H := m.cfg.Hidden
	L := m.cfg.Layers

	inWidths := make([]int, L)
	for l, lo := range m.layers {
		inWidths[l] = lo.in
	}

	logits := make([]float64, m.cfg.Classes)
	probs := make([]float64, m.cfg.Classes)
	dh := make([][]float64, L)   // gradient w.r.t. h_t per layer
	dc := make([][]float64, L)   // gradient w.r.t. c_t per layer
	dpre := make([]float64, 4*H) // gate pre-activation gradient
	dx := make([]float64, 0)     // gradient w.r.t. layer input
	dhNext := make([]float64, H) // scratch for Whᵀ·dpre
	total := 0.0
	inv := 1 / float64(len(batch))

	var tr *trace
	for _, ex := range batch {
		steps := len(ex.Seq)
		if tr == nil || len(tr.x[0]) < steps {
			tr = newTrace(L, steps, H, inWidths)
		}
		m.forward(v, ex.Seq, tr, logits)
		total += tensor.LogSumExp(logits) - logits[ex.Y]

		// Head gradient.
		tensor.Softmax(probs, logits)
		probs[ex.Y] -= 1
		top := tr.h[L-1][steps-1]
		tensor.AddOuter(g.wo, inv, probs, top)
		tensor.Axpy(inv, probs, g.bo)

		for l := 0; l < L; l++ {
			dh[l] = make([]float64, H)
			dc[l] = make([]float64, H)
		}
		// Seed dh at the top layer's final step: Woᵀ·(p − y).
		for j := 0; j < H; j++ {
			s := 0.0
			for cIdx := 0; cIdx < m.cfg.Classes; cIdx++ {
				s += v.wo.At(cIdx, j) * probs[cIdx]
			}
			dh[L-1][j] = s
		}

		for t := steps - 1; t >= 0; t-- {
			for l := L - 1; l >= 0; l-- {
				it, ft, gt, ot := tr.i[l][t], tr.f[l][t], tr.g[l][t], tr.o[l][t]
				tct := tr.tanc[l][t]
				var cPrev []float64
				if t > 0 {
					cPrev = tr.c[l][t-1]
				}
				for j := 0; j < H; j++ {
					dhj := dh[l][j]
					// dh/do and dh/dc through h = o·tanh(c).
					doj := dhj * tct[j]
					dcj := dc[l][j] + dhj*ot[j]*(1-tct[j]*tct[j])
					cp := 0.0
					if cPrev != nil {
						cp = cPrev[j]
					}
					dij := dcj * gt[j]
					dfj := dcj * cp
					dgj := dcj * it[j]
					dpre[j] = dij * it[j] * (1 - it[j])
					dpre[H+j] = dfj * ft[j] * (1 - ft[j])
					dpre[2*H+j] = dgj * (1 - gt[j]*gt[j])
					dpre[3*H+j] = doj * ot[j] * (1 - ot[j])
					// Carry dc to t−1.
					dc[l][j] = dcj * ft[j]
				}
				// Parameter gradients.
				x := tr.x[l][t]
				tensor.AddOuter(g.wx[l], inv, dpre, x)
				if t > 0 {
					tensor.AddOuter(g.wh[l], inv, dpre, tr.h[l][t-1])
				}
				tensor.Axpy(inv, dpre, g.b[l])
				// dh for t−1 of this layer: Whᵀ·dpre.
				wh := v.wh[l]
				for j := 0; j < H; j++ {
					dhNext[j] = 0
				}
				for r := 0; r < 4*H; r++ {
					d := dpre[r]
					if d == 0 {
						continue
					}
					row := wh.Row(r)
					for j := 0; j < H; j++ {
						dhNext[j] += row[j] * d
					}
				}
				copy(dh[l], dhNext)
				// dx: Wxᵀ·dpre feeds the layer below (or the embedding).
				if cap(dx) < len(x) {
					dx = make([]float64, len(x))
				}
				dx = dx[:len(x)]
				for j := range dx {
					dx[j] = 0
				}
				wx := v.wx[l]
				for r := 0; r < 4*H; r++ {
					d := dpre[r]
					if d == 0 {
						continue
					}
					row := wx.Row(r)
					for j := range dx {
						dx[j] += row[j] * d
					}
				}
				if l > 0 {
					// Same-timestep contribution to the layer below.
					tensor.Axpy(1, dx, dh[l-1])
				} else {
					// Embedding gradient for this token.
					tensor.Axpy(inv, dx, g.emb.Row(ex.Seq[t]))
				}
			}
		}
	}
	return total * inv
}
