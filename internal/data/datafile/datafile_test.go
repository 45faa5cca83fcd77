package datafile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
)

func sample() *data.Federated {
	return synthetic.Generate(synthetic.Default(0.5, 0.5).Scaled(0.12))
}

// roundTrip writes fed to a file and reads it back.
func roundTrip(t *testing.T, fed *data.Federated) *data.Federated {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.fed")
	if err := WriteFile(path, fed); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	got := roundTrip(t, want)
	if got.Name != want.Name || got.NumDevices() != want.NumDevices() {
		t.Fatalf("metadata lost: %s/%d vs %s/%d", got.Name, got.NumDevices(), want.Name, want.NumDevices())
	}
	if got.TotalSamples() != want.TotalSamples() {
		t.Fatal("sample counts differ")
	}
	// Spot-check payload equality.
	a := want.Shards[3].Train[0]
	b := got.Shards[3].Train[0]
	if a.Y != b.Y {
		t.Fatal("labels differ after round trip")
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("features differ after round trip")
		}
	}
}

func TestSequenceRoundTrip(t *testing.T) {
	want := &data.Federated{
		Name: "seq", NumClasses: 4, VocabSize: 9, SeqLen: 3,
		Shards: []*data.Shard{{ID: 0, Train: []data.Example{{Seq: []int{1, 2, 3}, Y: 2}}}},
	}
	got := roundTrip(t, want)
	if got.SeqLen != 3 || got.Shards[0].Train[0].Seq[2] != 3 {
		t.Fatal("sequence payload lost")
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.fed")
	if err := WriteFile(path, &data.Federated{Name: "broken"}); err == nil {
		t.Fatal("invalid dataset written")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused write left %s behind: %v", path, err)
	}
}

// TestReadRejectsGarbage: ReadFile hands back the container's refusal of
// bytes that are no file of this format, and adds its own of a
// well-formed file whose dataset is not valid.
func TestReadRejectsGarbage(t *testing.T) {
	var invalid bytes.Buffer
	if err := format.Encode(&invalid, &unchecked{Name: "broken"}); err != nil {
		t.Fatal(err)
	}
	for want, in := range map[string][]byte{
		"read header":   []byte("garbage bytes here"),
		"invalid value": invalid.Bytes(),
	} {
		path := filepath.Join(t.TempDir(), "ds.fed")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want a %q refusal, got %v", want, err)
		}
	}
}

// unchecked is a dataset the container will write whatever it holds.
type unchecked data.Federated

func (*unchecked) Validate() error { return nil }

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.fed")
	want := sample()
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalSamples() != want.TotalSamples() {
		t.Fatal("file round trip lost samples")
	}
	if err := WriteFile(path, &data.Federated{Name: "broken"}); err == nil {
		t.Fatal("invalid dataset written to a file")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.fed")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
}

// FuzzRead: whatever the bytes, the format's decoder (the one ReadFile
// runs) answers an error or a dataset that passes Validate — never a
// panic. The committed seeds (testdata/fuzz/FuzzRead) are a valid file,
// the same cut at the header boundary, and a header followed by a message
// that declares 1 GiB.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		var fed data.Federated
		if err := format.Decode(bytes.NewReader(b), &fed); err != nil {
			return
		}
		if err := fed.Validate(); err != nil {
			t.Fatalf("Decode returned a dataset that fails Validate: %v", err)
		}
	})
}
