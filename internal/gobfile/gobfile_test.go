package gobfile

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testFormat = Format{Magic: "GOBFILETEST", Version: 3}

type payload struct {
	Name string
	Vals []float64
}

func (p *payload) Validate() error {
	if p.Name == "invalid" {
		return errors.New("the name says so")
	}
	return nil
}

// unencodable makes gob's Encode fail after the header went out: gob has
// no encoding for a func.
type unencodable struct{ F func() }

func (*unencodable) Validate() error { return nil }

func TestRoundTrip(t *testing.T) {
	want := payload{Name: "x", Vals: []float64{0.1, -2.5, math.NaN()}}
	var buf bytes.Buffer
	if err := testFormat.Encode(&buf, &want); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := testFormat.Decode(&buf, &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != want.Name || len(got.Vals) != 3 || got.Vals[1] != -2.5 || !math.IsNaN(got.Vals[2]) {
		t.Fatalf("round trip: %+v != %+v", got, want)
	}
}

// TestDecodeRefusals: bytes that are not a gob stream, another format's
// file, another version's, and a file cut short are each refused, the
// header's two by name.
func TestDecodeRefusals(t *testing.T) {
	encoded := func(f Format) []byte {
		var buf bytes.Buffer
		if err := f.Encode(&buf, &payload{Name: "x", Vals: make([]float64, 64)}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := encoded(testFormat)
	for name, tc := range map[string]struct {
		in   []byte
		want string
	}{
		"garbage":       {[]byte("not a gob stream"), "read header"},
		"empty":         {nil, "read header"},
		"wrong magic":   {encoded(Format{Magic: "OTHER", Version: 3}), `bad magic "OTHER"`},
		"wrong version": {encoded(Format{Magic: "GOBFILETEST", Version: 2}), "version 2 not supported (want 3)"},
		"header only":   {good[:headerLen(t)], "read payload"},
		"cut payload":   {good[:len(good)-8], "read payload"},
	} {
		var got payload
		err := testFormat.Decode(bytes.NewReader(tc.in), &got)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want an error naming %q, got %v", name, tc.want, err)
		}
	}
}

// headerLen is the size of testFormat's header: its type definition and
// its value, which every encoding starts with.
func headerLen(t *testing.T) int {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(testFormat); err != nil {
		t.Fatal(err)
	}
	return buf.Len()
}

// TestWriteFileAtomic: an overwrite replaces the content and leaves no
// temp file; a write that fails midway leaves the previous file intact
// and no temp file either.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.gob")
	read := func() payload {
		t.Helper()
		var p payload
		if err := testFormat.ReadFile(path, &p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, name := range []string{"first", "second"} {
		if err := testFormat.WriteFile(path, &payload{Name: name}); err != nil {
			t.Fatal(err)
		}
		if got := read().Name; got != name {
			t.Fatalf("read back %q after writing %q", got, name)
		}
	}
	if err := testFormat.WriteFile(path, &unencodable{}); err == nil {
		t.Fatal("a payload gob cannot encode was written")
	}
	if got := read().Name; got != "second" {
		t.Fatalf("a failed write changed the file: now %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want the one file (no temp litter)", len(entries))
	}
}

func TestReadFileMissing(t *testing.T) {
	var p payload
	err := testFormat.ReadFile(filepath.Join(t.TempDir(), "nope.gob"), &p)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
}

// TestPayloadValidated: a value its own Validate refuses is neither
// written nor, met in a well-formed file, returned.
func TestPayloadValidated(t *testing.T) {
	var buf bytes.Buffer
	err := testFormat.Encode(&buf, &payload{Name: "invalid"})
	if err == nil || !strings.Contains(err.Error(), "refusing to write") || buf.Len() != 0 {
		t.Fatalf("invalid payload: %v, %d bytes written", err, buf.Len())
	}
	enc := gob.NewEncoder(&buf)
	if err := errors.Join(enc.Encode(testFormat), enc.Encode(payload{Name: "invalid"})); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := testFormat.Decode(&buf, &got); err == nil || !strings.Contains(err.Error(), "invalid value") {
		t.Fatalf("a file holding an invalid payload: %v", err)
	}
}
