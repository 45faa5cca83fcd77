package femnistsim

import (
	"fedprox/internal/data"
	"fedprox/internal/data/imagesim"
)

// GenerateScaled builds the FEMNIST surrogate at Scaled(f) whole, as the
// tests read it; the system builds it a device at a time, through
// imagesim.NewFleet.
func GenerateScaled(f float64) *data.Federated { return imagesim.Generate(Scaled(f)) }
