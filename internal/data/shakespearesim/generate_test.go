package shakespearesim

import "fedprox/internal/data"

// Generate builds the federated dataset described by c whole, as the
// tests read it: the fleet's roles, built in parallel. The system builds
// a device at a time, through NewFleet.
func Generate(c Config) *data.Federated { return data.Generate(NewFleet(c)) }
