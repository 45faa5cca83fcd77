package synthetic

import (
	"math"
	"sync"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Fleet is the lazy data.Fleet view of a synthetic population: it holds
// only the O(N) sample-size allocation plus the generator's stream
// seeds, and synthesizes a device's shard on demand. Peak memory for a
// run over the fleet is O(active cohort), not O(population), which is
// what lets virtual-time sweeps reach 10^5–10^6 devices.
//
// A shard's bits are a pure function of (config, device index), so
// concurrent calls are safe, for one device or many. Release puts its
// storage on a free list for the next Shard: the fleet holds no more
// buffers than shards were ever live at once.
type Fleet struct {
	cfg      Config
	sizes    []int
	sigmaStd []float64 // sqrt(Σ_jj), Σ_jj = j^{-1.2} 1-indexed as in the paper
	// Shared model and zero input mean for the IID dataset.
	sharedW tensor.Mat
	sharedB []float64
	zero    []float64
	// modelLen is the deviate count of a device model block (0 for IID).
	modelLen int
	// Device k's streams are SplitIndex(k) of these states.
	modelState, dataState, splitState uint64

	mu   sync.Mutex
	free []*shardBuf
	live map[*data.Shard]*shardBuf // handed out, not yet released
}

// shardBuf is a shard and the storage it points into.
type shardBuf struct {
	shard data.Shard
	ex    []data.Example // Train, then Test
	x     []float64      // the features, in draw order
	perm  []int          // slot s holds example perm[s]
}

// NewFleet builds the lazy fleet for c. Construction performs only the
// sequential draws — the power-law size allocation and (for IID) the
// shared model — so it is O(N) ints, not O(total samples).
func NewFleet(c Config) *Fleet {
	if c.Devices <= 0 || c.Dim <= 0 || c.Classes <= 1 || c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("synthetic: invalid config")
	}
	root := frand.New(c.Seed)
	sizeRng := root.Split("sizes")
	modelRng := root.Split("models")
	dataRng := root.Split("data")
	splitRng := root.Split("split")

	f := &Fleet{
		cfg:      c,
		sizes:    data.PowerLawSizes(sizeRng, c.Devices, c.MinSamples, c.MaxSamples, c.PowerAlpha),
		sigmaStd: make([]float64, c.Dim),
		zero:     make([]float64, c.Dim),
		live:     map[*data.Shard]*shardBuf{},
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
	f.modelState = modelRng.State()
	f.dataState = dataRng.State()
	f.splitState = splitRng.State()
	return f
}

// Config returns the generator configuration the fleet was built from.
func (f *Fleet) Config() Config { return f.cfg }

// NumDevices returns the population size.
func (f *Fleet) NumDevices() int { return f.cfg.Devices }

// TrainSize returns device k's training-set size without synthesizing
// its examples.
func (f *Fleet) TrainSize(k int) int { return data.TrainCount(f.sizes[k], f.cfg.TrainFrac) }

// Shard synthesizes device k's shard: one tensor.Normals call for the
// device model, one for every feature, each deviate then shifted and
// scaled as NormMeanStd does, and each example written straight into its
// train/test slot.
func (f *Fleet) Shard(k int) *data.Shard {
	c, n := f.cfg, f.sizes[k]
	f.mu.Lock()
	var b *shardBuf
	if last := len(f.free) - 1; last >= 0 {
		b, f.free = f.free[last], f.free[:last]
	} else {
		b = new(shardBuf)
	}
	f.live[&b.shard] = b
	f.mu.Unlock()
	if len(b.ex) < n {
		b.ex, b.x, b.perm = make([]data.Example, n), make([]float64, n*c.Dim), make([]int, n)
	}

	// Pooled, not in the buffer: a shard Generate keeps holds no scratch.
	scratch := tensor.GetVec[float64](f.modelLen + c.Classes)
	logits := scratch[f.modelLen:]
	W, bias, mean := f.sharedW, f.sharedB, f.zero
	if !c.IID {
		// In draw order: u_k ~ N(0, α); W_k, b_k ~ N(u_k, 1);
		// B_k ~ N(0, β); (v_k)_j ~ N(B_k, 1).
		z := scratch[:f.modelLen]
		tensor.Normals(z, frand.New(f.modelState).SplitIndex(k))
		cd := c.Classes * c.Dim
		wb, Bk, v := z[1:1+cd+c.Classes], z[1+cd+c.Classes:2+cd+c.Classes], z[2+cd+c.Classes:]
		affine(z[:1], 0, math.Sqrt(c.Alpha))
		affine(wb, z[0], 1)
		affine(Bk, 0, math.Sqrt(c.Beta))
		affine(v, Bk[0], 1)
		W, bias, mean = tensor.Mat{Rows: c.Classes, Cols: c.Dim, Data: wb[:cd]}, wb[cd:], v
	}
	x, perm, ex := b.x[:n*c.Dim], b.perm[:n], b.ex[:n]
	tensor.Normals(x, frand.New(f.dataState).SplitIndex(k))
	for i := range perm {
		perm[i] = i
	}
	frand.New(f.splitState).SplitIndex(k).Shuffle(perm) // data.SplitTrainTest's order
	for s, i := range perm {
		xi := x[i*c.Dim : (i+1)*c.Dim : (i+1)*c.Dim]
		for j := range xi {
			xi[j] = mean[j] + f.sigmaStd[j]*xi[j]
		}
		tensor.MatVecAdd(logits, W, xi, bias)
		ex[s] = data.Example{X: xi, Y: tensor.ArgMax(logits)}
	}
	tensor.PutVec(scratch)
	nTrain := data.TrainCount(n, c.TrainFrac)
	b.shard = data.Shard{ID: k, Train: ex[:nTrain:nTrain], Test: ex[nTrain:n:n]}
	return &b.shard
}

// affine maps each z of v to mean + std·z, NormMeanStd's arithmetic.
func affine(v []float64, mean, std float64) {
	for i := range v {
		v[i] = mean + std*v[i]
	}
}

// poisonRelease is a test mode (go test -tags poolpoison sets it):
// Release fills a shard's features with NaNs and its labels with −1, so
// a read after Release fails the test running over it.
var poisonRelease bool

// Release puts s's storage on the free list. It panics on a shard this
// fleet did not hand out or already has back.
func (f *Fleet) Release(s *data.Shard) {
	f.mu.Lock()
	defer f.mu.Unlock()
	b, ok := f.live[s]
	if !ok {
		panic("synthetic: Release of a shard that is not live on this fleet")
	}
	delete(f.live, s)
	if poisonRelease {
		tensor.Scale(math.NaN(), b.x)
		for i := range b.ex {
			b.ex[i].Y = -1
		}
	}
	f.free = append(f.free, b)
}
