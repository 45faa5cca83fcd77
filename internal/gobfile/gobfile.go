// Package gobfile is the repository's one file container: a gob stream of
// two messages, a Format header and one Payload value. Its user,
// internal/data/datafile, is a Format and a Payload.
//
// The reader needs no size cap: gob grows its buffer in chunks as bytes
// arrive and checks declared lengths against the bytes present, so a short
// file declaring a 1 GiB message costs ~10 MB and io.ErrUnexpectedEOF.
package gobfile

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Format identifies a file type. It is also the header message: Magic
// keeps one format's files (and arbitrary gob streams) out of another's
// reader, Version is bumped on an incompatible payload layout.
type Format struct {
	Magic   string
	Version int
}

// Payload is what a file holds. Validate runs before every write and after
// every read, so a format's files never hold, and its reader never
// returns, a value its own rules refuse.
type Payload interface{ Validate() error }

// Encode writes the header and the payload v to w.
func (f Format) Encode(w io.Writer, v Payload) error {
	if err := v.Validate(); err != nil {
		return fmt.Errorf("refusing to write: %w", err)
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(f); err != nil {
		return err
	}
	return enc.Encode(v)
}

// Decode verifies the header read from r and decodes the payload into v.
func (f Format) Decode(r io.Reader, v Payload) error {
	dec := gob.NewDecoder(r)
	var h Format
	if err := dec.Decode(&h); err != nil {
		return fmt.Errorf("read header: %w", err)
	}
	if h.Magic != f.Magic {
		return fmt.Errorf("bad magic %q (not a %s file)", h.Magic, f.Magic)
	}
	if h.Version != f.Version {
		return fmt.Errorf("version %d not supported (want %d)", h.Version, f.Version)
	}
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("read payload: %w", err)
	}
	if err := v.Validate(); err != nil {
		return fmt.Errorf("file holds an invalid value: %w", err)
	}
	return nil
}

// WriteFile replaces path with the encoding of v atomically and durably:
// the bytes go to a temp file in the same directory, are synced — or a
// power loss could make the rename durable before the data it points at —
// and only then renamed over path, so neither a failed write nor a crash
// leaves path holding anything but its previous content or the new one.
func (f Format) WriteFile(path string, v Payload) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err = f.Encode(tmp, v); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadFile decodes the file at path into v. A missing file is an error
// matching os.ErrNotExist.
func (f Format) ReadFile(path string, v Payload) error {
	file, err := os.Open(path)
	if err != nil {
		return err
	}
	defer file.Close()
	return f.Decode(file, v)
}
