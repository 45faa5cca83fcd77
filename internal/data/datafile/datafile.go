// Package datafile serializes federated datasets to disk, the equivalent
// of the LEAF benchmark's prepared data files the paper's experiments
// consume (Caldas et al., arXiv:1812.01097).
//
// A file carries the complete data.Federated value — shards, splits, and
// task metadata — so expensive generation runs once, every process in a
// distributed deployment reads identical bytes, and experiment inputs can
// be archived next to their outputs. The container, internal/gobfile, runs
// Federated.Validate before every write and after every read.
package datafile

import (
	"fmt"

	"fedprox/internal/data"
	"fedprox/internal/gobfile"
)

var format = gobfile.Format{Magic: "FEDPROXDATA", Version: 1}

func wrap(err error) error {
	if err != nil {
		return fmt.Errorf("datafile: %w", err)
	}
	return nil
}

// WriteFile writes the dataset to path atomically (temp file + rename).
func WriteFile(path string, fed *data.Federated) error { return wrap(format.WriteFile(path, fed)) }

// ReadFile reads a dataset from path.
func ReadFile(path string) (*data.Federated, error) {
	var fed data.Federated
	if err := format.ReadFile(path, &fed); err != nil {
		return nil, wrap(err)
	}
	return &fed, nil
}
