// Package femnistsim provides the offline surrogate for the paper's
// FEMNIST workload: the authors subsample 10 lower-case characters
// ('a'-'j') from EMNIST, distribute 5 classes to each of 200 devices, and
// train multinomial logistic regression (Appendix C.1).
//
// Real EMNIST images are replaced by class-conditional Gaussian prototype
// images (see imagesim's package comment for why). FEMNIST's prototypes use
// more blobs and higher noise than the MNIST surrogate so the task is
// harder, mirroring the real datasets' relative difficulty.
package femnistsim

import (
	"fedprox/internal/data"
	"fedprox/internal/data/imagesim"
)

// defaultConfig returns the paper-shape configuration: 200 devices, 28×28
// inputs, 5 of 10 classes per device, ~92 samples per device on average.
func defaultConfig() imagesim.Config {
	return imagesim.Config{
		Name:             "FEMNIST",
		Devices:          200,
		Classes:          10,
		ClassesPerDevice: 5,
		Side:             28,
		BlobsPerClass:    6,
		Noise:            0.55,
		DeviceSkew:       0.55,
		StyleBlobs:       4,
		MinSamples:       18,
		MaxSamples:       1400,
		PowerAlpha:       2.05,
		TrainFrac:        0.8,
		Seed:             2002,
	}
}

// Scaled returns the FEMNIST surrogate's configuration with device count
// and sample bounds scaled by f, for fast experiment runs.
func Scaled(f float64) imagesim.Config { return defaultConfig().Scaled(f) }

// GenerateScaled builds the FEMNIST surrogate at Scaled(f); at f = 1 it
// is the paper-scale dataset.
func GenerateScaled(f float64) *data.Federated { return imagesim.Generate(Scaled(f)) }
