// Package checkpoint persists a run's core.Snapshot to a file so long runs
// survive process restarts: File(path, fp) is the core.Checkpointer that
// encodes the snapshot — once, as one gob value in the internal/gobfile
// container — beside the Fingerprint of the run that wrote it. Only the
// in-process simulator checkpoints: fednet.NewServer, tiered and
// virtual-time runs reject a Checkpointer.
package checkpoint

import (
	"errors"
	"fmt"
	"os"

	"fedprox/internal/core"
	"fedprox/internal/gobfile"
)

// Version 2 is the typed core.Snapshot layout; the version check refuses
// version 1, which nested the coordinator's state as opaque bytes.
var format = gobfile.Format{Magic: "FEDPROXCKPT", Version: 2}

// Fingerprint identifies the run a checkpoint belongs to. Two runs with
// equal fingerprints may resume each other's checkpoints.
type Fingerprint struct {
	// Dataset names the federated dataset (e.g. "Synthetic(1,1)").
	Dataset string
	// NumParams is the model's parameter count.
	NumParams int
	// Label is the method label (core.Label of the configuration).
	Label string
	// Seed is the environment seed.
	Seed uint64
}

// state is the file's payload.
type state struct {
	Fingerprint Fingerprint
	Snapshot    *core.Snapshot
}

// Validate is gobfile.Payload's: before every write, after every read.
func (s *state) Validate() error {
	switch {
	case s.Snapshot == nil:
		return errors.New("no snapshot")
	case s.Snapshot.NextRound < 0:
		return fmt.Errorf("negative round %d", s.Snapshot.NextRound)
	case len(s.Snapshot.Params) == 0:
		return errors.New("empty parameters")
	case s.Fingerprint.NumParams != len(s.Snapshot.Params):
		return fmt.Errorf("fingerprint says %d params, snapshot has %d", s.Fingerprint.NumParams, len(s.Snapshot.Params))
	}
	return nil
}

// FileCheckpointer is the file-backed core.Checkpointer.
type FileCheckpointer struct {
	// Path is the checkpoint file location.
	Path string
	// Fingerprint guards against resuming the wrong run.
	Fingerprint Fingerprint
}

// File returns a checkpointer persisting to path for the run fp identifies.
func File(path string, fp Fingerprint) *FileCheckpointer {
	return &FileCheckpointer{Path: path, Fingerprint: fp}
}

// Load implements core.Checkpointer. A missing file means "start fresh";
// an existing file with a mismatched fingerprint is an error.
func (f *FileCheckpointer) Load() (*core.Snapshot, error) {
	var st state
	err := format.ReadFile(f.Path, &st)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil, nil
	case err != nil:
		return nil, fmt.Errorf("checkpoint: %w", err)
	case st.Fingerprint != f.Fingerprint:
		return nil, fmt.Errorf("checkpoint: fingerprint mismatch: saved %+v, run %+v", st.Fingerprint, f.Fingerprint)
	}
	return st.Snapshot, nil
}

// Save implements core.Checkpointer with an atomic file write.
func (f *FileCheckpointer) Save(s *core.Snapshot) error {
	if err := format.WriteFile(f.Path, &state{Fingerprint: f.Fingerprint, Snapshot: s}); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
