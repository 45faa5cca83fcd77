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

// Scaled returns a copy of c with sample bounds scaled by f (floored at 5).
func (c Config) Scaled(f float64) Config {
	c.MinSamples = scaleFloor(c.MinSamples, f, 5)
	c.MaxSamples = scaleFloor(c.MaxSamples, f, c.MinSamples)
	return c
}

func scaleFloor(n int, f float64, floor int) int {
	v := int(math.Round(float64(n) * f))
	if v < floor {
		v = floor
	}
	return v
}

// Generate builds the federated dataset described by c. Each device's
// examples come from streams keyed by its index alone, so the devices are
// built in parallel and the bits do not depend on GOMAXPROCS.
func Generate(c Config) *data.Federated {
	if c.Devices <= 0 || c.Classes <= 1 || c.ClassesPerDevice <= 0 || c.Side <= 1 ||
		c.TrainFrac < 0 || c.TrainFrac > 1 {
		panic("imagesim: invalid config")
	}
	root := frand.New(c.Seed)
	protoRng := root.Split("prototypes")
	sizeRng := root.Split("sizes")
	assignRng := root.Split("assign")
	sampleRng := root.Split("samples")
	splitRng := root.Split("split")

	dim := c.Side * c.Side
	protos := prototypes(protoRng, c.Classes, c.Side, c.BlobsPerClass)
	sizes := data.PowerLawSizes(sizeRng, c.Devices, c.MinSamples, c.MaxSamples, c.PowerAlpha)
	classSets := data.LabelSkewAssign(assignRng, c.Devices, c.Classes, c.ClassesPerDevice)

	fed := &data.Federated{
		Name:       c.Name,
		Shards:     make([]*data.Shard, c.Devices),
		NumClasses: c.Classes,
		FeatureDim: dim,
	}
	styleRng := root.Split("styles")
	// Without a style, every device renders a read-only zero field with
	// skew 0: a pixel is then a + 0·0 = a, since a is never −0 (see clamp01).
	var noStyle []float64
	if !(c.DeviceSkew > 0) {
		noStyle = make([]float64, dim)
	}
	tensor.ParallelFor(c.Devices, 0, func(k int) {
		devRng := sampleRng.SplitIndex(k)
		classes := classSets[k]
		noise, skew, style := c.Noise, 0.0, noStyle
		if c.DeviceSkew > 0 {
			skew = c.DeviceSkew
			blobs := c.StyleBlobs
			if blobs <= 0 {
				blobs = 3
			}
			style = styleField(styleRng.SplitIndex(k), c.Side, blobs)
		}
		style = style[:dim]
		examples := make([]data.Example, sizes[k])
		for i := range examples {
			y := classes[devRng.Intn(len(classes))]
			x := make([]float64, dim)
			tensor.Normals(x, devRng)
			// 0 + noise·z is NormMeanStd(0, c.Noise)'s expression.
			proto := protos[y][:dim]
			for j, z := range x {
				x[j] = clamp01(proto[j] + (0 + noise*z) + skew*style[j])
			}
			examples[i] = data.Example{X: x, Y: y}
		}
		train, test := data.SplitTrainTest(examples, c.TrainFrac, splitRng.SplitIndex(k))
		fed.Shards[k] = &data.Shard{ID: k, Train: train, Test: test}
	})
	if err := fed.Validate(); err != nil {
		panic(err)
	}
	return fed
}

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
