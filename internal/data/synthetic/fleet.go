package synthetic

import (
	"math"
	"sync"
	"sync/atomic"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Fleet is the lazy data.Fleet view of a synthetic population: it holds
// each device's sample count and label memo plus the generator's stream
// seeds, and synthesizes a device's shard on demand. Peak memory for a
// run over the fleet is O(active cohort) shards plus a byte per example
// and 12 per device, not O(population) shards, which is what lets
// virtual-time sweeps reach 10^5–10^6 devices.
//
// The label memo is what a re-synthesis saves: the first Shard(k) records
// each example's label in slot order, and a later one draws only the
// features, skipping the device model's W_k and b_k and the per-example
// logits. The labels are the ones a full synthesis computes, so the memo
// moves no bit of any shard.
//
// A shard's bits are a pure function of (config, device index), so
// concurrent calls are safe, for one device or many. Shard claims a buffer
// by compare-and-swap, taking no lock, and makes one only when it finds
// every buffer live: the fleet holds no more than shards were live at once.
type Fleet struct {
	cfg      Config
	start    []int     // device k's examples are [start[k], start[k+1]) of labels
	sigmaStd []float64 // sqrt(Σ_jj), Σ_jj = j^{-1.2} 1-indexed as in the paper
	// Shared model and zero input mean for the IID dataset.
	sharedW tensor.Mat
	sharedB []float64
	zero    []float64
	// modelLen is the deviate count of a device model block (0 for IID).
	modelLen int
	// Device k's streams are SplitIndex(k) of these states.
	modelState, dataState, splitState uint64

	// labels is the memo, one byte per example in slot order, allocated
	// by the first Shard; device k's are valid once known[k] reads
	// labelsKnown. One synthesis of k claims the slot by compare-and-swap
	// and publishes it with a store.
	memo   sync.Once
	labels []uint8
	known  []atomic.Uint32

	bufs atomic.Pointer[shardBuf] // every buffer made, newest first
}

// A device's label memo state, and a shard buffer's: Shard moves a buffer
// from free to live, Release to releasing and, once poisoned, to free.
const (
	labelsUnknown, bufFree uint32 = iota, iota
	labelsWriting, bufLive
	labelsKnown, bufReleasing
)

// shardBuf is a shard and the storage it points into.
type shardBuf struct {
	state atomic.Uint32
	next  *shardBuf // the buffer made before it
	shard data.Shard
	ex    []data.Example // Train, then Test
	x     []float64      // the features, in draw order
	perm  []int          // slot s holds example perm[s]
}

// NewFleet builds the lazy fleet for c. Construction performs only the
// sequential draws — the power-law size allocation and (for IID) the
// shared model — so it is O(N) ints, not O(total samples).
func NewFleet(c Config) *Fleet {
	if c.Devices <= 0 || c.Dim <= 0 || c.Classes <= 1 || c.Classes > 256 || c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("synthetic: invalid config")
	}
	root := frand.New(c.Seed)
	sizeRng, modelRng, dataRng, splitRng := root.Split("sizes"), root.Split("models"), root.Split("data"), root.Split("split")

	f := &Fleet{
		cfg:      c,
		start:    make([]int, c.Devices+1),
		sigmaStd: make([]float64, c.Dim),
		zero:     make([]float64, c.Dim),
	}
	// The sizes are drawn into start[1:] and summed in place.
	sizeRng.PowerLawVec(f.start[1:], c.MinSamples, c.MaxSamples, c.PowerAlpha)
	for k := 1; k < c.Devices; k++ {
		f.start[k+1] += f.start[k]
	}
	for j := range f.sigmaStd {
		f.sigmaStd[j] = math.Sqrt(math.Pow(float64(j+1), -1.2))
	}
	if c.IID {
		// These draws advance modelRng before the device streams split.
		f.sharedW = tensor.NewMat(c.Classes, c.Dim)
		modelRng.NormVec(f.sharedW.Data, 0, 1)
		f.sharedB = modelRng.NormVec(make([]float64, c.Classes), 0, 1)
	} else {
		f.modelLen = 2 + c.Classes*c.Dim + c.Classes + c.Dim
	}
	f.modelState, f.dataState, f.splitState = modelRng.State(), dataRng.State(), splitRng.State()
	return f
}

// Config returns the generator configuration the fleet was built from.
func (f *Fleet) Config() Config { return f.cfg }

// Header returns the dataset's metadata.
func (f *Fleet) Header() data.Federated {
	return data.Federated{Name: f.cfg.Name(), NumClasses: f.cfg.Classes, FeatureDim: f.cfg.Dim}
}

// NumDevices returns the population size.
func (f *Fleet) NumDevices() int { return f.cfg.Devices }

// TrainSize returns device k's training-set size without synthesizing
// its examples.
func (f *Fleet) TrainSize(k int) int { return data.TrainCount(f.size(k), f.cfg.TrainFrac) }

// size is device k's sample count.
func (f *Fleet) size(k int) int { return f.start[k+1] - f.start[k] }

// Shard synthesizes device k's shard: one tensor.Normals call for the
// device model, one for every feature, each deviate then shifted and
// scaled as NormMeanStd does, and each example written straight into its
// train/test slot. Once k's labels are in the memo, the model call draws
// only B_k and v_k and each example takes its label from the memo.
func (f *Fleet) Shard(k int) *data.Shard {
	c, n, b := f.cfg, f.size(k), f.claim()
	if len(b.ex) < n {
		b.ex, b.x, b.perm = make([]data.Example, n), make([]float64, n*c.Dim), make([]int, n)
	}

	// The first synthesis of k records its labels; a caller that loses the
	// claim to a concurrent one synthesizes in full and records nothing.
	f.memo.Do(func() {
		f.labels, f.known = make([]uint8, f.start[c.Devices]), make([]atomic.Uint32, c.Devices)
	})
	labels := f.labels[f.start[k]:f.start[k+1]]
	known := f.known[k].Load() == labelsKnown
	record := !known && f.known[k].CompareAndSwap(labelsUnknown, labelsWriting)

	// Pooled, not in the buffer: a shard Generate keeps holds no scratch.
	scratch := tensor.GetVec[float64](f.modelLen + c.Classes)
	logits := scratch[f.modelLen:]
	W, bias, mean := f.sharedW, f.sharedB, f.zero
	if !c.IID {
		// In draw order: u_k ~ N(0, α); W_k, b_k ~ N(u_k, 1);
		// B_k ~ N(0, β); (v_k)_j ~ N(B_k, 1). Only the labels read u_k,
		// W_k and b_k: with the labels known, their deviates (two draws
		// each) are skipped.
		z, rng := scratch[:f.modelLen], frand.New(f.modelState).SplitIndex(k)
		cd := c.Classes * c.Dim
		lead := 1 + cd + c.Classes
		if known {
			rng.Skip(2 * lead)
			tensor.Normals(z[lead:], rng)
		} else {
			tensor.Normals(z, rng)
			affine(z[:1], 0, math.Sqrt(c.Alpha))
			affine(z[1:lead], z[0], 1)
			W, bias = tensor.Mat{Rows: c.Classes, Cols: c.Dim, Data: z[1 : 1+cd]}, z[1+cd:lead]
		}
		affine(z[lead:lead+1], 0, math.Sqrt(c.Beta)) // B_k
		mean = z[lead+1:]
		affine(mean, z[lead], 1)
	}
	x, perm, ex := b.x[:n*c.Dim], b.perm[:n], b.ex[:n]
	tensor.Normals(x, frand.New(f.dataState).SplitIndex(k))
	for i := range perm {
		perm[i] = i
	}
	frand.New(f.splitState).SplitIndex(k).Shuffle(perm) // data.SplitTrainTest's order
	for s, i := range perm {
		xi := x[i*c.Dim : (i+1)*c.Dim : (i+1)*c.Dim]
		mu, sd := mean[:len(xi)], f.sigmaStd[:len(xi)]
		for j := range xi {
			xi[j] = mu[j] + sd[j]*xi[j]
		}
		var y int
		if known {
			y = int(labels[s])
		} else {
			tensor.MatVecAdd(logits, W, xi, bias)
			y = tensor.ArgMax(logits)
			if record {
				labels[s] = uint8(y)
			}
		}
		ex[s] = data.Example{X: xi, Y: y}
	}
	if record {
		f.known[k].Store(labelsKnown)
	}
	tensor.PutVec(scratch)
	nTrain := data.TrainCount(n, c.TrainFrac)
	b.shard = data.Shard{ID: k, Train: ex[:nTrain:nTrain], Test: ex[nTrain:n:n]}
	return &b.shard
}

// claim returns a buffer it moved from free to live. A scan that finds
// every buffer live pushes a free one, unless another Shard pushed first.
func (f *Fleet) claim() *shardBuf {
	for {
		head := f.bufs.Load()
		for b := head; b != nil; b = b.next {
			if b.state.Load() == bufFree && b.state.CompareAndSwap(bufFree, bufLive) {
				return b
			}
		}
		f.bufs.CompareAndSwap(head, &shardBuf{next: head})
	}
}

// affine maps each z of v to mean + std·z, NormMeanStd's arithmetic.
func affine(v []float64, mean, std float64) {
	for i := range v {
		v[i] = mean + std*v[i]
	}
}

// Release frees s's buffer, poisoned under the poolpoison build tag
// (data.Poison). It panics on a shard this fleet did not hand out (or a
// copy of one: the buffer is found by the shard's address) or already has
// back; of two concurrent Releases of one shard, exactly one returns.
func (f *Fleet) Release(s *data.Shard) {
	for b := f.bufs.Load(); b != nil; b = b.next {
		if &b.shard == s && b.state.CompareAndSwap(bufLive, bufReleasing) {
			data.Poison(s)
			b.state.Store(bufFree)
			return
		}
	}
	panic("synthetic: Release of a shard that is not live on this fleet")
}
