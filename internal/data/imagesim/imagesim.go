// Package imagesim generates class-conditional Gaussian "image" datasets
// with label-skew federated partitions. It is the shared substrate behind
// the MNIST and FEMNIST surrogates. The repository runs offline, with no
// dataset downloads or pretrained embeddings, so every dataset of Section
// 5.1 is generated: a surrogate keeps what the experiments exercise, the
// statistical heterogeneity described below, and replaces only the data
// itself (and, for Sent140, the GloVe embeddings, which the LSTM learns).
//
// Each class c gets a prototype image: a sum of a few smooth 2-D Gaussian
// blobs on a side×side grid, giving classes distinct but overlapping
// spatial structure (like digit strokes). An example of class c is the
// prototype plus pixel noise, clamped to [0, 1]. Devices receive samples
// from only a small set of classes (2 for MNIST, 5 for FEMNIST), and
// per-device sample counts follow a power law — the two mechanisms the
// paper uses to impose statistical heterogeneity on real image data.
package imagesim

import (
	"math"

	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/tensor"
)

// Config parameterizes the generator.
type Config struct {
	// Name labels the resulting dataset ("MNIST", "FEMNIST").
	Name string
	// Devices is the number of devices in the network.
	Devices int
	// Classes is the number of labels.
	Classes int
	// ClassesPerDevice is the label-skew degree: each device only ever sees
	// this many distinct classes.
	ClassesPerDevice int
	// Side is the image side length; FeatureDim = Side².
	Side int
	// BlobsPerClass controls prototype complexity.
	BlobsPerClass int
	// Noise is the per-pixel Gaussian noise stddev.
	Noise float64
	// DeviceSkew scales a per-device smooth "style" field added to every
	// prototype the device renders — the analogue of per-writer
	// handwriting style. It makes x|y device-dependent (feature-level
	// statistical heterogeneity) and keeps the task from being linearly
	// separable across devices.
	DeviceSkew float64
	// StyleBlobs is the number of signed bumps in each device's style
	// field; 0 selects 3.
	StyleBlobs int
	// MinSamples and MaxSamples bound the power-law allocation.
	MinSamples, MaxSamples int
	// PowerAlpha is the power-law exponent.
	PowerAlpha float64
	// TrainFrac is the per-device train split.
	TrainFrac float64
	// Seed drives all randomness.
	Seed uint64
}

// Scaled returns a copy of c for a fast run: the device count scaled by f
// and truncated (at least 20), the sample bounds scaled by f and rounded
// (at least 5).
func (c Config) Scaled(f float64) Config {
	c.Devices = max(int(float64(c.Devices)*f), 20)
	c.MinSamples = data.ScaleCount(c.MinSamples, f, 5)
	c.MaxSamples = data.ScaleCount(c.MaxSamples, f, c.MinSamples)
	return c
}

// Fleet is the lazy view of the dataset c describes. It holds the draws
// every device shares — the class prototypes, the power-law sizes and
// the label-skew class sets — and builds a device's shard on demand from
// streams keyed by its index alone.
type Fleet struct {
	data.Sizes
	cfg       Config
	protos    [][]float64
	classSets [][]int
	noStyle   []float64 // the zero field every device renders without a style
	// Device k's streams are SplitIndex(k) of these.
	sampleRng, styleRng, splitRng *frand.Source
}

// NewFleet checks c and makes the shared draws.
func NewFleet(c Config) *Fleet {
	if c.Devices <= 0 || c.Classes <= 1 || c.ClassesPerDevice <= 0 || c.Side <= 1 ||
		c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("imagesim: invalid config")
	}
	root := frand.New(c.Seed)
	f := &Fleet{
		Sizes:     data.Sizes{Samples: data.PowerLawSizes(root.Split("sizes"), c.Devices, c.MinSamples, c.MaxSamples, c.PowerAlpha), TrainFrac: c.TrainFrac},
		cfg:       c,
		protos:    prototypes(root.Split("prototypes"), c.Classes, c.Side, c.BlobsPerClass),
		classSets: data.LabelSkewAssign(root.Split("assign"), c.Devices, c.Classes, c.ClassesPerDevice),
		sampleRng: root.Split("samples"),
		styleRng:  root.Split("styles"),
		splitRng:  root.Split("split"),
	}
	// Without a style, every device renders a read-only zero field with
	// skew 0: a pixel is then a + 0·0 = a, since a is never −0 (see clamp01).
	if !(c.DeviceSkew > 0) {
		f.noStyle = make([]float64, c.Side*c.Side)
	}
	return f
}

// Header returns the dataset's metadata.
func (f *Fleet) Header() data.Federated {
	return data.Federated{Name: f.cfg.Name, NumClasses: f.cfg.Classes, FeatureDim: f.cfg.Side * f.cfg.Side}
}

// Shard builds device k's shard.
func (f *Fleet) Shard(k int) *data.Shard {
	c, dim := f.cfg, f.cfg.Side*f.cfg.Side
	devRng := f.sampleRng.SplitIndex(k)
	classes := f.classSets[k]
	noise, skew, style := c.Noise, 0.0, f.noStyle
	if c.DeviceSkew > 0 {
		skew = c.DeviceSkew
		blobs := c.StyleBlobs
		if blobs <= 0 {
			blobs = 3
		}
		style = styleField(f.styleRng.SplitIndex(k), c.Side, blobs)
	}
	style = style[:dim]
	examples := make([]data.Example, f.Samples[k])
	for i := range examples {
		y := classes[devRng.Intn(len(classes))]
		x := make([]float64, dim)
		tensor.Normals(x, devRng)
		// 0 + noise·z is NormMeanStd(0, c.Noise)'s expression.
		proto := f.protos[y][:dim]
		for j, z := range x {
			x[j] = clamp01(proto[j] + (0 + noise*z) + skew*style[j])
		}
		examples[i] = data.Example{X: x, Y: y}
	}
	train, test := data.SplitTrainTest(examples, c.TrainFrac, f.splitRng.SplitIndex(k))
	return &data.Shard{ID: k, Train: train, Test: test}
}

// Generate builds the federated dataset described by c: the fleet's
// shards, built in parallel.
func Generate(c Config) *data.Federated { return data.Generate(NewFleet(c)) }

// clamp01 clamps v to [0, 1] without a branch. It equals "v < 0: 0,
// v > 1: 1, else v" on every input but −0, which it maps to +0. No pixel
// is −0: a prototype pixel is ≥ +0, and the noise term is added to 0
// first, which turns a −0 into +0, so their sum is not −0 either.
func clamp01(v float64) float64 { return min(max(v, 0), 1) }

// styleField draws a smooth signed field in roughly [−1, 1]: a handful of
// positive and negative Gaussian bumps, the per-device rendering style.
func styleField(rng *frand.Source, side, blobs int) []float64 {
	img := make([]float64, side*side)
	for b := 0; b < blobs; b++ {
		cx := rng.Float64() * float64(side-1)
		cy := rng.Float64() * float64(side-1)
		w := (0.1 + 0.2*rng.Float64()) * float64(side)
		amp := 2*rng.Float64() - 1
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				dx := float64(x) - cx
				dy := float64(y) - cy
				img[y*side+x] += amp * math.Exp(-(dx*dx+dy*dy)/(2*w*w))
			}
		}
	}
	return img
}

// prototypes builds one prototype image per class: blobs 2-D Gaussian bumps
// with random centers, widths, and intensities on a side×side grid,
// normalized to peak at 1.
func prototypes(rng *frand.Source, classes, side, blobs int) [][]float64 {
	out := make([][]float64, classes)
	for c := 0; c < classes; c++ {
		crng := rng.SplitIndex(c)
		img := make([]float64, side*side)
		for b := 0; b < blobs; b++ {
			cx := crng.Float64() * float64(side-1)
			cy := crng.Float64() * float64(side-1)
			// Width between 8% and 25% of the image side.
			w := (0.08 + 0.17*crng.Float64()) * float64(side)
			amp := 0.5 + 0.5*crng.Float64()
			for y := 0; y < side; y++ {
				for x := 0; x < side; x++ {
					dx := float64(x) - cx
					dy := float64(y) - cy
					img[y*side+x] += amp * math.Exp(-(dx*dx+dy*dy)/(2*w*w))
				}
			}
		}
		// Normalize to a peak of 1 so noise scale is comparable per class.
		max := 0.0
		for _, v := range img {
			if v > max {
				max = v
			}
		}
		if max > 0 {
			for j := range img {
				img[j] /= max
			}
		}
		out[c] = img
	}
	return out
}
