// Package checkpoint tests core's checkpoint/resume path end to end, over
// a store that persists as a file would: every Snapshot a run saves is
// gob-encoded, and every Load decodes a fresh one. It holds no non-test
// code — core.Checkpointer is the interface, and core's restore checks
// what Load returns.
package checkpoint

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
)

// gobCheckpointer persists as storage would: Save gob-encodes the
// snapshot and Load decodes a fresh one, so a resumed run reads nothing
// the saving run handed over, only what survived reflection encoding.
type gobCheckpointer struct{ saved []byte }

func (g *gobCheckpointer) Load() (*core.Snapshot, error) {
	if g.saved == nil {
		return nil, nil
	}
	s := new(core.Snapshot)
	return s, gob.NewDecoder(bytes.NewReader(g.saved)).Decode(s)
}

func (g *gobCheckpointer) Save(s *core.Snapshot) error {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(s); err != nil {
		return err
	}
	g.saved = b.Bytes()
	return nil
}

// sampleRun is a completed 4-round run's configuration and the store
// holding its last snapshot.
func sampleRun(t testing.TB) (*gobCheckpointer, core.Config) {
	t.Helper()
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	cfg := core.FedProx(4, 5, 2, 0.01, 1)
	cfg.EvalEvery = 2
	ck := &gobCheckpointer{}
	cfg.Checkpointer = ck
	if _, err := core.Run(linear.ForDataset(fed), fed, cfg); err != nil {
		t.Fatal(err)
	}
	return ck, cfg
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

// TestRoundTrip: what a run hands its Checkpointer survives a gob round
// trip field for field — both endpoints' delta+qsgd link state (broadcast
// shadows, rounding-stream positions), a work accumulator caught between
// two evaluations and the NaN columns of the evaluated points included.
func TestRoundTrip(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	cfg := core.FedProx(2, 5, 4, 0.01, 1)
	cfg.EvalEvery = 2
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

	var g gobCheckpointer
	if err := g.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := g.Load()
	if err != nil {
		t.Fatal(err)
	}
	if d := diff("Snapshot", reflect.ValueOf(want), reflect.ValueOf(got)); d != "" {
		t.Fatal(d)
	}
}

// TestValidate: a stored snapshot that cannot be this run's is refused at
// resume by name, and the refused run saves nothing over it. (Load's nil
// is no refusal: it is a fresh start, TestFreshRunWithCheckpointerStartsAtZero.)
func TestValidate(t *testing.T) {
	ck, cfg := sampleRun(t)
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	intact := ck.saved
	for want, mutate := range map[string]func(*core.Snapshot){
		"resumes at round -1": func(s *core.Snapshot) { s.NextRound = -1 },
		"has 0 params":        func(s *core.Snapshot) { s.Params = nil },
		fmt.Sprintf("has %d params", mdl.NumParams()+1): func(s *core.Snapshot) { s.Params = append(s.Params, 0) },
	} {
		s, err := ck.Load()
		if err != nil {
			t.Fatal(err)
		}
		mutate(s)
		if err := ck.Save(s); err != nil {
			t.Fatal(err)
		}
		stored := ck.saved
		if _, err := core.Run(mdl, fed, cfg); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want a %q refusal, got %v", want, err)
		}
		if !bytes.Equal(ck.saved, stored) {
			t.Errorf("%s: a refused resume saved over the stored snapshot", want)
		}
		ck.saved = intact
	}
	if _, err := core.Run(mdl, fed, cfg); err != nil {
		t.Fatalf("the intact snapshot does not resume: %v", err)
	}
}

// TestCompatible: a snapshot resumes under the run that saved it and
// under no other seed.
func TestCompatible(t *testing.T) {
	ck, cfg := sampleRun(t)
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	if s, err := ck.Load(); err != nil || s.NextRound != cfg.Rounds {
		t.Fatalf("stored snapshot: %+v, %v", s, err)
	}
	if _, err := core.Run(mdl, fed, cfg); err != nil {
		t.Fatalf("the saving run's own config: %v", err)
	}
	other := cfg
	other.Seed = 99
	if _, err := core.Run(mdl, fed, other); err == nil || !strings.Contains(err.Error(), "this is \"FedProx(mu=1)\" seed 99") {
		t.Fatalf("another seed: %v", err)
	}
}

// TestLoadRejectsGarbage: only a nil Load is a fresh start. Stored bytes
// that do not decode fail the run before its first save — a run that
// started fresh over them would overwrite them.
func TestLoadRejectsGarbage(t *testing.T) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	cfg := core.FedProx(4, 5, 2, 0.01, 1)
	ck := &gobCheckpointer{saved: []byte("not a checkpoint")}
	cfg.Checkpointer = ck
	if h, err := core.Run(linear.ForDataset(fed), fed, cfg); err == nil {
		t.Fatalf("garbage resumed as %+v", h.Final())
	}
	if string(ck.saved) != "not a checkpoint" {
		t.Fatal("the failed run saved over the stored bytes")
	}
}

// FuzzLoad: whatever bytes the store holds, a run resuming from them
// answers an error or a history — never a panic, never a fresh start over
// bytes that exist, and never a resume from a snapshot of another run,
// round range or model size. The committed seeds (testdata/fuzz/FuzzLoad)
// are a valid store of sampleRun, the same cut after its type definitions,
// and those definitions followed by a message that declares 1 GiB.
func FuzzLoad(f *testing.F) {
	_, cfg := sampleRun(f)
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	mdl := linear.ForDataset(fed)
	f.Fuzz(func(t *testing.T, b []byte) {
		ck := &gobCheckpointer{saved: append([]byte{}, b...)}
		cfg := cfg
		cfg.Checkpointer = ck
		if _, err := core.Run(mdl, fed, cfg); err != nil {
			return
		}
		var s core.Snapshot
		if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&s); err != nil {
			t.Fatalf("a run resumed from bytes that do not decode: %v", err)
		}
		if s.Label != core.Label(cfg) || s.Seed != cfg.Seed || s.NextRound < 0 || s.NextRound > cfg.Rounds || len(s.Params) != mdl.NumParams() {
			t.Fatalf("a run resumed from a snapshot it should refuse: %+v", s)
		}
	})
}
