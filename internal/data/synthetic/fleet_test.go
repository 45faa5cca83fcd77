package synthetic

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"fedprox/internal/data"
)

func fleetTestConfig() Config {
	return Config{
		Alpha: 1, Beta: 1,
		Devices:    17,
		Dim:        6,
		Classes:    4,
		MinSamples: 5,
		MaxSamples: 40,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       42,
	}
}

// shardsEqual compares two shards bit for bit: every feature value must
// carry identical IEEE-754 bits, every label and split boundary must
// match.
func shardsEqual(a, b *data.Shard) bool {
	if a.ID != b.ID || len(a.Train) != len(b.Train) || len(a.Test) != len(b.Test) {
		return false
	}
	eq := func(p, q []data.Example) bool {
		for i := range p {
			if p[i].Y != q[i].Y || len(p[i].X) != len(q[i].X) {
				return false
			}
			for j := range p[i].X {
				if math.Float64bits(p[i].X[j]) != math.Float64bits(q[i].X[j]) {
					return false
				}
			}
		}
		return true
	}
	return eq(a.Train, b.Train) && eq(a.Test, b.Test)
}

// TestFleetMatchesGenerate is the buffer registry's contract: a shard
// synthesized into storage that a released shard left behind — larger
// and stale, or too small and grown — is bit-identical to the fresh one
// Generate keeps, and TrainSize predicts its split without
// materializing.
func TestFleetMatchesGenerate(t *testing.T) {
	for _, iid := range []bool{false, true} {
		c := fleetTestConfig()
		c.IID = iid
		t.Run(c.Name(), func(t *testing.T) {
			fed := Generate(c) // never released: fresh storage per shard
			fl := NewFleet(c)
			large, small := 0, 0
			for k := range c.Devices {
				if fl.size(k) > fl.size(large) {
					large = k
				}
				if fl.size(k) < fl.size(small) {
					small = k
				}
			}
			// The registry, newest first, now holds the small device's
			// buffer before the large one's: the large device next grows
			// the small buffer, and the small device reuses the large one,
			// stale.
			a, b := fl.Shard(large), fl.Shard(small)
			fl.Release(a)
			fl.Release(b)
			a, b = fl.Shard(large), fl.Shard(small)
			for _, s := range []*data.Shard{a, b} {
				if !shardsEqual(s, fed.Shards[s.ID]) {
					t.Errorf("Shard(%d) in recycled storage differs from a fresh one", s.ID)
				}
				fl.Release(s)
			}
			for k := 0; k < fl.NumDevices(); k++ {
				if got, want := fl.TrainSize(k), len(fed.Shards[k].Train); got != want {
					t.Errorf("TrainSize(%d) = %d, want %d", k, got, want)
				}
				s := fl.Shard(k)
				if !shardsEqual(s, fed.Shards[k]) {
					t.Errorf("Shard(%d) differs from a fresh one", k)
				}
				fl.Release(s)
			}
		})
	}
}

// TestFleetConcurrentShardRelease runs Shard and Release from four
// goroutines at once — two on one device, two walking every device — and
// holds every shard to a fresh synthesis: under -race this is the buffer
// registry's data-race check.
func TestFleetConcurrentShardRelease(t *testing.T) {
	c := fleetTestConfig()
	fed := Generate(c)
	fl := NewFleet(c)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 3 * c.Devices {
				k := 5
				if g >= 2 {
					k = (i + g*7) % c.Devices
				}
				s := fl.Shard(k)
				if !shardsEqual(s, fed.Shards[k]) {
					errs <- fmt.Sprintf("goroutine %d: Shard(%d) differs from a fresh one", g, k)
					return
				}
				fl.Release(s)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	n := 0
	for b := fl.bufs.Load(); b != nil; b = b.next {
		n++
	}
	if n > 4 {
		t.Errorf("the registry holds %d buffers, more than the 4 shards ever live at once", n)
	}
}

// TestReleaseRejectsUnknownShard: a second or third Release of one
// shard, a shard another fleet handed out, or a copy of a live shard
// panics instead of freeing one buffer twice.
func TestReleaseRejectsUnknownShard(t *testing.T) {
	fl := NewFleet(fleetTestConfig())
	s, live := fl.Shard(2), fl.Shard(3)
	fl.Release(s)
	cp := *live
	for _, tc := range []struct {
		name string
		s    *data.Shard
	}{
		{"released", s},
		{"twice-released", s},
		{"foreign", NewFleet(fleetTestConfig()).Shard(2)},
		{"copied", &cp},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Release of a %s shard did not panic", tc.name)
				}
			}()
			fl.Release(tc.s)
		}()
	}
	fl.Release(live) // the original is still live: its copy freed nothing
}

// TestReleaseRaceOnePanics: two goroutines Release one shard at once;
// exactly one of them returns and the other panics, every time.
func TestReleaseRaceOnePanics(t *testing.T) {
	fl := NewFleet(fleetTestConfig())
	for i := range 200 {
		s := fl.Shard(i % 17)
		var panics atomic.Int32
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if recover() != nil {
						panics.Add(1)
					}
				}()
				fl.Release(s)
			}()
		}
		wg.Wait()
		if n := panics.Load(); n != 1 {
			t.Fatalf("round %d: %d of two concurrent Releases of one shard panicked, want exactly 1", i, n)
		}
	}
}

// TestFleetShardIsPure: repeated and out-of-order materializations of
// the same index yield the same bits — Shard is a pure function of
// (config, index), which is what makes concurrent materialization safe.
func TestFleetShardIsPure(t *testing.T) {
	fl := NewFleet(fleetTestConfig())
	a := fl.Shard(11)
	fl.Shard(3) // interleaved access must not perturb stream state
	b := fl.Shard(11)
	if !shardsEqual(a, b) {
		t.Fatal("Shard(11) is not reproducible across calls")
	}
}

// scaleShapeConfig is the benchmark of record's vtime-fleet-eval fleet
// shape (10 features, 5 classes, 10 to 20 samples) at devices devices.
func scaleShapeConfig(devices int) Config {
	return Config{
		Alpha: 1, Beta: 1,
		Devices:    devices,
		Dim:        10,
		Classes:    5,
		MinSamples: 10,
		MaxSamples: 20,
		PowerAlpha: 1.55,
		TrainFrac:  0.8,
		Seed:       43,
	}
}

// TestFleetSecondShardMatchesFresh: a device's second Shard, on a fleet
// that already synthesized it once, is bit for bit the first Shard of a
// fresh fleet — for the heterogeneous and the IID generator at paper
// scale, and at vtime-fleet-eval's shape over 2 000 devices.
func TestFleetSecondShardMatchesFresh(t *testing.T) {
	for name, c := range map[string]Config{
		"Synthetic(1,1)":   Default(1, 1),
		"Synthetic-IID":    DefaultIID(),
		"vtime-fleet-eval": scaleShapeConfig(2000),
	} {
		t.Run(name, func(t *testing.T) {
			seen, fresh := NewFleet(c), NewFleet(c)
			for k := range c.Devices {
				seen.Release(seen.Shard(k))
			}
			for k := range c.Devices {
				a, b := seen.Shard(k), fresh.Shard(k)
				if !shardsEqual(a, b) {
					t.Fatalf("device %d: the second Shard differs from a fresh fleet's first", k)
				}
				seen.Release(a)
				fresh.Release(b)
			}
		})
	}
}

// TestFleetLabelsParallel: four goroutines Shard and Release the same
// devices in the same order, so the first synthesis of each device is
// contended, and every shard any of them sees is a fresh fleet's bit
// for bit. Under -race this races the fleet's per-device state.
func TestFleetLabelsParallel(t *testing.T) {
	c := scaleShapeConfig(300)
	fed := Generate(c)
	fl := NewFleet(c)
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2 {
				for k := range c.Devices {
					s := fl.Shard(k)
					if !shardsEqual(s, fed.Shards[k]) {
						errs <- fmt.Sprintf("goroutine %d: Shard(%d) differs from a fresh one", g, k)
						return
					}
					fl.Release(s)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestEagerFleetAdapter: a materialized Federated viewed through Fleet
// reports the same sizes and shards by identity.
func TestEagerFleetAdapter(t *testing.T) {
	fed := Generate(fleetTestConfig())
	fl := fed.Fleet()
	if fl.NumDevices() != fed.NumDevices() {
		t.Fatalf("NumDevices %d != %d", fl.NumDevices(), fed.NumDevices())
	}
	for k := 0; k < fl.NumDevices(); k++ {
		if fl.Shard(k) != fed.Shards[k] {
			t.Fatalf("eager Shard(%d) is not the identical shard", k)
		}
		if fl.TrainSize(k) != len(fed.Shards[k].Train) {
			t.Fatalf("eager TrainSize(%d) mismatch", k)
		}
	}
}

// BenchmarkNewFleet times the lazy fleet's construction at the config
// and population of the benchmark of record's vtime-fleet-eval workload:
// 12 500 devices of 10 to 20 samples, power-law exponent 1.55.
func BenchmarkNewFleet(b *testing.B) {
	c := scaleShapeConfig(12500)
	for range b.N {
		benchFleet = NewFleet(c)
	}
}

var benchFleet *Fleet
