package checkpoint

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/gobfile"
	"fedprox/internal/model/linear"
)

var sampleFP = Fingerprint{Dataset: "Synthetic(1,1)", NumParams: 3, Label: "FedProx(mu=1)", Seed: 7}

func sampleSnapshot() *core.Snapshot {
	nan := math.NaN()
	return &core.Snapshot{
		NextRound: 42,
		Params:    []float64{0.1, -2.5, math.Pi},
		Points: []core.Point{
			{Round: 0, TrainLoss: 2.3, TestAcc: 0.1, GradVar: nan, B: nan, MeanGamma: nan},
			{Round: 40, TrainLoss: 0.5, TestAcc: 0.8, GradVar: nan, B: nan, MeanGamma: nan},
		},
		Cost: core.Cost{UplinkBytes: 11, DeviceEpochs: 5},
	}
}

// diff walks two values of one type and names the first place they
// differ, comparing floats by bits (NaN equals NaN) and, as gob does,
// treating an empty slice or map as a nil one.
func diff(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v != %v", path, a, b)
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				return path + ": nil on one side only"
			}
			return ""
		}
		return diff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := diff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d != %d", path, a.Len(), b.Len())
		}
		for i := 0; i < a.Len(); i++ {
			if d := diff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	case reflect.Map:
		if a.Len() != b.Len() {
			return fmt.Sprintf("%s: len %d != %d", path, a.Len(), b.Len())
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() {
				return fmt.Sprintf("%s[%v]: missing", path, k)
			}
			if d := diff(fmt.Sprintf("%s[%v]", path, k), a.MapIndex(k), bv); d != "" {
				return d
			}
		}
	default:
		if !a.Equal(b) {
			return fmt.Sprintf("%s: %v != %v", path, a, b)
		}
	}
	return ""
}

// keep is the checkpointer that holds every snapshot it was handed.
type keep struct{ snaps []*core.Snapshot }

func (k *keep) Load() (*core.Snapshot, error) { return nil, nil }
func (k *keep) Save(s *core.Snapshot) error   { k.snaps = append(k.snaps, s); return nil }

// budget is a device-side compute budget of that many epochs.
type budget int

func (b budget) EpochBudget(_, _, _ int) int { return int(b) }

// TestRoundTrip: what a run hands its Checkpointer comes back from the
// file field for field — both endpoints' delta+qsgd link state (broadcast
// shadows, rounding-stream positions), a work accumulator caught between
// two evaluations and the NaN columns of the evaluated points included.
func TestRoundTrip(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(2, 5, 4, 0.01, 1)
	cfg.EvalEvery = 2
	cfg.CheckpointEvery = 1
	cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}
	cfg.DeviceBudget = budget(3)
	var k keep
	cfg.Checkpointer = &k
	if _, err := core.Run(mdl, fed, cfg); err != nil {
		t.Fatal(err)
	}
	want := k.snaps[0] // after round 0, which no evaluation follows
	if want.Links == nil || want.DeviceLinks == nil || len(want.DeviceLinks.State.Devices) == 0 || want.Work.N == 0 {
		t.Fatalf("the run's snapshot is missing state the test is about: %+v", want)
	}

	fp := Fingerprint{Dataset: fed.Name, NumParams: mdl.NumParams(), Label: core.Label(cfg), Seed: cfg.Seed}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := File(path, fp).Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := File(path, fp).Load()
	if err != nil {
		t.Fatal(err)
	}
	if d := diff("Snapshot", reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
		t.Fatal(d)
	}
}

// TestValidate: a snapshot that cannot be the fingerprinted run's is
// refused before it reaches the disk.
func TestValidate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	mutated := func(mutate func(*core.Snapshot)) *core.Snapshot {
		s := sampleSnapshot()
		mutate(s)
		return s
	}
	for name, s := range map[string]*core.Snapshot{
		"negative round":         mutated(func(s *core.Snapshot) { s.NextRound = -1 }),
		"no parameters":          mutated(func(s *core.Snapshot) { s.Params = nil }),
		"NumParams disagreement": mutated(func(s *core.Snapshot) { s.Params = append(s.Params, 0) }),
		"no snapshot":            nil,
	} {
		if err := File(path, sampleFP).Save(s); err == nil {
			t.Errorf("%s: saved", name)
		}
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a refused save left a file behind: %v", err)
	}
}

// TestCompatible: a checkpoint loads under the fingerprint that wrote it
// and under no other.
func TestCompatible(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := File(path, sampleFP).Save(sampleSnapshot()); err != nil {
		t.Fatal(err)
	}
	if s, err := File(path, sampleFP).Load(); err != nil || s.NextRound != 42 {
		t.Fatalf("matching fingerprint: %+v, %v", s, err)
	}
	other := sampleFP
	other.Seed = 99
	if _, err := File(path, other).Load(); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("mismatched fingerprint: %v", err)
	}
}

// TestLoadFileMissing: no file yet means "start fresh", not an error.
func TestLoadFileMissing(t *testing.T) {
	s, err := File(filepath.Join(t.TempDir(), "nope.ckpt"), sampleFP).Load()
	if s != nil || err != nil {
		t.Fatalf("missing file: %+v, %v", s, err)
	}
}

// TestLoadRejectsGarbage: only a missing file is a fresh start. A file that
// exists and cannot be read is an error — a run handed (nil, nil) for it
// would overwrite it at its first save.
func TestLoadRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	if s, err := File(path, sampleFP).Load(); err == nil {
		t.Fatalf("garbage loaded as %+v", s)
	}
}

// TestLoadRejectsWrongMagic: the container is shared, so the header is all
// that keeps another format's file (a dataset's, here) and a version-1
// checkpoint, whose state was nested opaque bytes, out of this reader.
// Each is refused by name.
func TestLoadRejectsWrongMagic(t *testing.T) {
	for want, f := range map[string]gobfile.Format{
		"bad magic": {Magic: "FEDPROXDATA", Version: format.Version},
		"version 1": {Magic: format.Magic, Version: 1},
	} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := f.WriteFile(path, &state{Fingerprint: sampleFP, Snapshot: sampleSnapshot()}); err != nil {
			t.Fatal(err)
		}
		if _, err := File(path, sampleFP).Load(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want a %q refusal, got %v", want, err)
		}
	}
}

// FuzzLoad: whatever bytes the file holds, Load answers an error or a
// snapshot that passes the package's own validation — never a panic, and
// never "start fresh" for a file that exists. The committed seeds
// (testdata/fuzz/FuzzLoad) are a valid file, the same cut at the header
// boundary, and a header followed by a message that declares 1 GiB.
func FuzzLoad(f *testing.F) {
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(path, b, 0o600); err != nil {
			t.Fatal(err)
		}
		snap, err := File(path, sampleFP).Load()
		if err != nil {
			return
		}
		if err := (&state{Fingerprint: sampleFP, Snapshot: snap}).Validate(); err != nil {
			t.Fatalf("Load returned a snapshot it would refuse to save: %v", err)
		}
	})
}
