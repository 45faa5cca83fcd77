// Package checkpoint persists and restores federated training state so
// long runs survive process restarts and results can be archived next to
// the experiment output.
//
// A checkpoint carries the global model parameters, the round cursor, the
// full evaluated history, and the configuration fingerprint used to
// detect mismatched resumes. The format is gob with a magic header and a
// version byte; all state is self-contained (no external references).
// Only the in-process simulator writes and resumes checkpoints:
// fednet.NewServer and virtual-time runs reject a Checkpointer.
package checkpoint

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"fedprox/internal/core"
)

// magic guards against feeding arbitrary gob streams into Load.
const magic = "FEDPROXCKPT"

// version is bumped on incompatible layout changes.
const version = 1

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

// State is everything needed to resume a run.
type State struct {
	// Fingerprint identifies the run.
	Fingerprint Fingerprint
	// NextRound is the first round that has not yet executed.
	NextRound int
	// Params is the global model wᵗ at NextRound.
	Params []float64
	// History is the evaluated trajectory so far.
	History core.History
	// Coordinator is the coordinator's opaque resumable state beyond
	// params and history: cumulative cost counters plus, for codec runs,
	// the serialized link state (rounding-stream positions,
	// error-feedback residuals, broadcast shadows). Checkpoints written
	// before it existed decode it as nil; core tolerates that for plain
	// runs and refuses to resume a codec run from such a file.
	Coordinator []byte
}

// Validate reports structural problems with the state.
func (s *State) Validate() error {
	switch {
	case s.NextRound < 0:
		return fmt.Errorf("checkpoint: negative round %d", s.NextRound)
	case len(s.Params) == 0:
		return errors.New("checkpoint: empty parameters")
	case s.Fingerprint.NumParams != len(s.Params):
		return fmt.Errorf("checkpoint: fingerprint says %d params, state has %d",
			s.Fingerprint.NumParams, len(s.Params))
	}
	return nil
}

// header is the on-disk preamble.
type header struct {
	Magic   string
	Version int
}

// Save writes the state to w.
func Save(w io.Writer, s *State) error {
	if err := s.Validate(); err != nil {
		return err
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(header{Magic: magic, Version: version}); err != nil {
		return fmt.Errorf("checkpoint: write header: %w", err)
	}
	if err := enc.Encode(s); err != nil {
		return fmt.Errorf("checkpoint: write state: %w", err)
	}
	return nil
}

// Load reads a state from r, verifying the header.
func Load(r io.Reader) (*State, error) {
	dec := gob.NewDecoder(r)
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("checkpoint: read header: %w", err)
	}
	if h.Magic != magic {
		return nil, errors.New("checkpoint: bad magic (not a checkpoint file)")
	}
	if h.Version != version {
		return nil, fmt.Errorf("checkpoint: version %d not supported (want %d)", h.Version, version)
	}
	var s State
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: read state: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// SaveFile writes the state atomically: to a temp file in the same
// directory, then rename, so a crash mid-write never corrupts the
// previous checkpoint.
func SaveFile(path string, s *State) error {
	tmp, err := os.CreateTemp(dirOf(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, s); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	return nil
}

// LoadFile reads a checkpoint from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open: %w", err)
	}
	defer f.Close()
	return Load(f)
}

// Compatible reports whether a checkpoint may resume a run with the given
// fingerprint, with a reason when it may not.
func Compatible(s *State, fp Fingerprint) error {
	if s.Fingerprint != fp {
		return fmt.Errorf("checkpoint: fingerprint mismatch: saved %+v, run %+v", s.Fingerprint, fp)
	}
	return nil
}

// FileCheckpointer adapts the file format to core.Checkpointer so
// core.Run can persist and resume transparently. The opaque coordinator
// state carries the cumulative cost counters, codec link state, and the
// adaptive-μ controller, so a resumed run continues all of them.
type FileCheckpointer struct {
	// Path is the checkpoint file location.
	Path string
	// Fingerprint guards against resuming the wrong run.
	Fingerprint Fingerprint
}

var _ core.Checkpointer = (*FileCheckpointer)(nil)

// File returns a checkpointer persisting to path for the run identified
// by fp.
func File(path string, fp Fingerprint) *FileCheckpointer {
	return &FileCheckpointer{Path: path, Fingerprint: fp}
}

// Load implements core.Checkpointer. A missing file means "start fresh";
// an existing file with a mismatched fingerprint is an error.
func (f *FileCheckpointer) Load() (int, []float64, *core.History, []byte, error) {
	st, err := LoadFile(f.Path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil, nil, nil, nil
		}
		return 0, nil, nil, nil, err
	}
	if err := Compatible(st, f.Fingerprint); err != nil {
		return 0, nil, nil, nil, err
	}
	hist := st.History
	return st.NextRound, st.Params, &hist, st.Coordinator, nil
}

// Save implements core.Checkpointer with an atomic file write.
func (f *FileCheckpointer) Save(nextRound int, params []float64, hist *core.History, state []byte) error {
	st := &State{
		Fingerprint: f.Fingerprint,
		NextRound:   nextRound,
		Params:      append([]float64(nil), params...),
		Coordinator: append([]byte(nil), state...),
	}
	st.Fingerprint.NumParams = len(params)
	if hist != nil {
		st.History = *hist
	}
	return SaveFile(f.Path, st)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
