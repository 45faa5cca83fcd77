// Package mnistsim provides the offline surrogate for the paper's federated
// MNIST workload: 10 classes, 1,000 devices, 2 digits per device, samples
// per device following a power law, multinomial logistic regression model
// (Section 5.1 and Appendix C.1).
//
// Real MNIST images are replaced by class-conditional Gaussian prototype
// images (see imagesim's package comment for why); the optimization
// structure that the paper's experiments exercise — convex local
// objectives with heavy label skew and power-law device sizes — is
// preserved exactly.
package mnistsim

import (
	"fedprox/internal/data"
	"fedprox/internal/data/imagesim"
)

// defaultConfig returns the paper-shape configuration: 1,000 devices, 28×28
// inputs, 2 of 10 classes per device, ~69 samples per device on average.
func defaultConfig() imagesim.Config {
	return imagesim.Config{
		Name:             "MNIST",
		Devices:          1000,
		Classes:          10,
		ClassesPerDevice: 2,
		Side:             28,
		BlobsPerClass:    4,
		Noise:            0.45,
		DeviceSkew:       0.45,
		StyleBlobs:       3,
		MinSamples:       18,
		MaxSamples:       1100,
		PowerAlpha:       2.12,
		TrainFrac:        0.8,
		Seed:             1001,
	}
}

// Generate builds the MNIST surrogate at paper scale.
func Generate() *data.Federated { return imagesim.Generate(defaultConfig()) }

// GenerateScaled builds the MNIST surrogate with device count and sample
// bounds scaled by f, for fast experiment runs.
func GenerateScaled(f float64) *data.Federated {
	c := defaultConfig().Scaled(f)
	c.Devices = scaleDevices(c.Devices, f)
	return imagesim.Generate(c)
}

func scaleDevices(n int, f float64) int {
	v := int(float64(n) * f)
	if v < 20 {
		v = 20
	}
	return v
}
