// Package datafile holds the tests that a dataset needs no file: every
// generator's device k is a pure function of (config, k), so a process
// regenerates exactly the devices it hosts, bit for bit, from (workload,
// scale, seed). The directory is test-only; a dataset has no on-disk
// form.
package datafile

import (
	"math"
	"slices"
	"strings"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/femnistsim"
	"fedprox/internal/data/imagesim"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/sent140sim"
	"fedprox/internal/data/shakespearesim"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/experiments"
	"fedprox/internal/model/linear"
)

// generator is one generator at one config: its lazy fleet and its
// package's Generate.
type generator struct {
	fleet    func() data.Source
	generate func() *data.Federated
}

// generators returns the five generators — synthetic (both kinds),
// imagesim (MNIST, FEMNIST and a style-free set), sent140sim and
// shakespearesim — at small configs drawn from seed.
func generators(seed uint64) map[string]generator {
	syn := synthetic.Default(1, 1).Scaled(0.05)
	iid := synthetic.DefaultIID().Scaled(0.05)
	mnist, femnist := mnistsim.Scaled(0.02), femnistsim.Scaled(0.02)
	styleFree := mnist
	styleFree.DeviceSkew = 0
	sent := sent140sim.Default().Scaled(0.02, 10)
	shake := shakespearesim.Default().Scaled(0.002, 12)
	shake.Devices = 20
	for _, s := range []*uint64{&syn.Seed, &iid.Seed, &mnist.Seed, &femnist.Seed, &styleFree.Seed, &sent.Seed, &shake.Seed} {
		*s = seed
	}
	images := func(c imagesim.Config) generator {
		return generator{func() data.Source { return imagesim.NewFleet(c) }, func() *data.Federated { return imagesim.Generate(c) }}
	}
	return map[string]generator{
		"synthetic":     {func() data.Source { return synthetic.NewFleet(syn) }, func() *data.Federated { return synthetic.Generate(syn) }},
		"synthetic-iid": {func() data.Source { return synthetic.NewFleet(iid) }, func() *data.Federated { return synthetic.Generate(iid) }},
		"mnist":         images(mnist),
		"femnist":       images(femnist),
		"style-free":    images(styleFree),
		"sent140":       {func() data.Source { return sent140sim.NewFleet(sent) }, func() *data.Federated { return sent140sim.Generate(sent) }},
		"shakespeare":   {func() data.Source { return shakespearesim.NewFleet(shake) }, func() *data.Federated { return shakespearesim.Generate(shake) }},
	}
}

// sameShard reports the first difference between two shards, bit for
// bit: ID, split sizes, then every label, feature and token.
func sameShard(got, want *data.Shard) string {
	if got.ID != want.ID || len(got.Train) != len(want.Train) || len(got.Test) != len(want.Test) {
		return "ID or split sizes differ"
	}
	for _, part := range [][2][]data.Example{{got.Train, want.Train}, {got.Test, want.Test}} {
		for i, g := range part[0] {
			w := part[1][i]
			if g.Y != w.Y || !slices.Equal(g.Seq, w.Seq) || len(g.X) != len(w.X) {
				return "a label, a token or a feature count differs"
			}
			for j := range g.X {
				if math.Float64bits(g.X[j]) != math.Float64bits(w.X[j]) {
					return "a feature differs"
				}
			}
		}
	}
	return ""
}

// sameDataset holds fl to fed: its header is fed's metadata, and every
// device it builds, last first and each released before the next, is
// fed's device bit for bit, of fed's training size.
func sameDataset(t *testing.T, name string, fl data.Source, fed *data.Federated) {
	t.Helper()
	hdr := fl.Header()
	if hdr.Shards != nil || hdr.Name != fed.Name || hdr.NumClasses != fed.NumClasses || hdr.FeatureDim != fed.FeatureDim ||
		hdr.VocabSize != fed.VocabSize || hdr.SeqLen != fed.SeqLen {
		t.Fatalf("%s: header %+v does not describe the dataset", name, hdr)
	}
	if fl.NumDevices() != fed.NumDevices() {
		t.Fatalf("%s: %d devices, the dataset has %d", name, fl.NumDevices(), fed.NumDevices())
	}
	for k := fl.NumDevices() - 1; k >= 0; k-- {
		if fl.TrainSize(k) != len(fed.Shards[k].Train) {
			t.Fatalf("%s: TrainSize(%d) = %d, want %d", name, k, fl.TrainSize(k), len(fed.Shards[k].Train))
		}
		s := fl.Shard(k)
		if diff := sameShard(s, fed.Shards[k]); diff != "" {
			t.Fatalf("%s: device %d: %s", name, k, diff)
		}
		fl.Release(s)
	}
}

// TestEveryFleetMatchesGenerateParallel: for every generator, NewFleet's
// Shard(k) is Generate's device k bit for bit. Generate builds its devices
// in parallel, at whatever GOMAXPROCS the test runs under; the fleet
// builds one at a time, in reverse order.
func TestEveryFleetMatchesGenerateParallel(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		for name, g := range generators(seed) {
			sameDataset(t, name, g.fleet(), g.generate())
		}
	}
}

// roundTrip holds two regenerations of each workload key to each other,
// as a fedserver and its fedworkers each regenerate it: the devices one
// process builds are those every other process built.
func roundTrip(t *testing.T, keys ...string) {
	o := experiments.Fast()
	o.Scale = 0.1
	for _, key := range keys {
		a, err := o.NamedWorkload(key)
		if err != nil {
			t.Fatal(err)
		}
		b, err := o.NamedWorkload(key)
		if err != nil {
			t.Fatal(err)
		}
		fed := data.Generate(a.Fleet)
		sameDataset(t, key, b.Fleet, fed)
		if got, want := data.FleetStats(b.Fleet.Header().Name, b.Fleet), fed.ComputeStats(); got != want {
			t.Errorf("%s: regenerated stats %v, want %v", key, got, want)
		}
	}
}

// TestRoundTrip: the dense workloads regenerate bit for bit.
func TestRoundTrip(t *testing.T) { roundTrip(t, "synthetic", "synthetic-iid", "mnist", "femnist") }

// TestSequenceRoundTrip: the sequence workloads regenerate token for
// token.
func TestSequenceRoundTrip(t *testing.T) { roundTrip(t, "shakespeare", "sent140") }

// TestFileRoundTrip: a lazy fleet's Config is all a dataset needs to be
// rebuilt — the fleet it builds holds the same devices — and all a model
// needs to be sized, as the benchmark sizes the lazy fleet's model.
func TestFileRoundTrip(t *testing.T) {
	fl := synthetic.NewFleet(synthetic.Default(0.5, 0.5).Scaled(0.12))
	fed := data.Generate(fl)
	sameDataset(t, "Config", synthetic.NewFleet(fl.Config()), fed)
	if got, want := linear.New(fl.Config().Dim, fl.Config().Classes).NumParams(), linear.ForDataset(fed).NumParams(); got != want {
		t.Errorf("a model sized from Config has %d params, from the dataset %d", got, want)
	}
}

// corrupt is a source whose device 2 carries a label outside the label
// space.
type corrupt struct{ data.Source }

func (c corrupt) Shard(k int) *data.Shard {
	s := c.Source.Shard(k)
	if k == 2 {
		s.Train[0].Y = c.Header().NumClasses
	}
	return s
}

// TestWriteRejectsInvalid: a dataset that fails Validate is never handed
// on — data.Generate, which every generator's Generate is, panics with
// Validate's error instead of returning it.
func TestWriteRejectsInvalid(t *testing.T) {
	defer func() {
		if err, ok := recover().(error); !ok || !strings.Contains(err.Error(), "device 2 label 10 out of range") {
			t.Fatalf("Generate of an invalid dataset: recovered %v, want Validate's label refusal", err)
		}
	}()
	data.Generate(corrupt{synthetic.NewFleet(synthetic.Default(1, 1).Scaled(0.05))})
}

// FuzzRead: whatever (workload, seed, device) it is asked for, a
// generator's fleet builds a device that passes Validate and is the
// device its Generate builds, bit for bit, or the workload is not one of
// generators' keys. device is taken modulo the fleet's size. The
// committed seeds (testdata/fuzz/FuzzRead) name one device of each kind.
func FuzzRead(f *testing.F) {
	f.Fuzz(func(t *testing.T, workload string, seed uint64, device int) {
		g, ok := generators(seed)[workload]
		if !ok {
			return
		}
		fl := g.fleet()
		n := fl.NumDevices()
		k := (device%n + n) % n
		s := fl.Shard(k)
		alone := *s // device k as the one device of a dataset
		alone.ID = 0
		one := fl.Header()
		one.Shards = []*data.Shard{&alone}
		if err := one.Validate(); err != nil {
			t.Fatalf("%s seed %d device %d: %v", workload, seed, k, err)
		}
		if diff := sameShard(s, g.generate().Shards[k]); diff != "" {
			t.Fatalf("%s seed %d device %d: %s", workload, seed, k, diff)
		}
	})
}
