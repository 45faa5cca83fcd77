package data

import (
	"math"

	"fedprox/internal/tensor"
)

// Fleet is the lazy view of a federated population: it reports how many
// devices exist and what each device's training-set size is (the p_k =
// n_k/n weights of Equation 1 need only sizes), but materializes a
// device's actual examples only on demand. Drivers that touch a small
// cohort per round — the paper's regime, where K << N devices are
// active — can then hold per-round state that is O(cohort) while the
// population is 10^5–10^6.
//
// Shard must be safe for concurrent calls, two of one device included
// (parallel solvers materialize their own shards). Release declares the
// caller is done with a shard Shard returned; lazy implementations may
// recycle its storage, eager ones ignore it. After Release the shard
// must no longer be read.
type Fleet interface {
	// NumDevices returns the population size N.
	NumDevices() int
	// TrainSize returns n_k, device k's local training-set size,
	// without materializing the shard.
	TrainSize(device int) int
	// Shard materializes device k's local dataset.
	Shard(device int) *Shard
	// Release returns a shard obtained from Shard.
	Release(s *Shard)
}

// Source is a generator's fleet: a Fleet that also describes the dataset
// its shards make up. Device k's shard is a pure function of the
// generator's config and k, so a process builds only the devices it
// hosts, and Generate builds them all.
type Source interface {
	Fleet
	// Header returns the dataset's metadata — every Federated field but
	// Shards, which is nil — without materializing a shard.
	Header() Federated
}

// Generate materializes every shard of src, none released, into the
// dataset its header describes, and panics if that dataset fails
// Validate. It is every generator's Generate.
func Generate(src Source) *Federated {
	fed := src.Header()
	devices := make([]int, src.NumDevices())
	for k := range devices {
		devices[k] = k
	}
	fed.Shards = Shards(src, devices)
	if err := fed.Validate(); err != nil {
		panic(err)
	}
	return &fed
}

// Shards materializes the listed devices of fl in parallel, none
// released: out[i] is device devices[i]'s shard. A device's streams are
// keyed by its index alone, so the bits do not depend on GOMAXPROCS.
func Shards(fl Fleet, devices []int) []*Shard {
	out := make([]*Shard, len(devices))
	tensor.ParallelFor(len(devices), 0, func(i int) { out[i] = fl.Shard(devices[i]) })
	return out
}

// Sizes is the O(N) state a generator's fleet keeps besides its shared
// tables: device k's sample count Samples[k] and the fraction of it that
// trains. Embedded, it gives the fleet NumDevices, TrainSize and Release.
type Sizes struct {
	Samples   []int
	TrainFrac float64
}

// NumDevices returns the population size.
func (s Sizes) NumDevices() int { return len(s.Samples) }

// TrainSize returns device k's training-set size, the count
// SplitTrainTest gives its examples.
func (s Sizes) TrainSize(k int) int { return TrainCount(s.Samples[k], s.TrainFrac) }

// Release takes back a shard the fleet built afresh, which the fleet
// keeps no part of, so there is nothing to recycle: it only poisons it
// (see Poison).
func (Sizes) Release(s *Shard) { Poison(s) }

// poisonRelease is a test mode (go test -tags poolpoison sets it).
var poisonRelease bool

// Poison is what a fleet's Release does to the shard it takes back under
// the poolpoison build tag: it fills every feature with NaN and every
// token and label with −1, so a read after Release fails the test running
// over it. Without the tag it does nothing.
func Poison(s *Shard) {
	if !poisonRelease {
		return
	}
	for _, part := range [][]Example{s.Train, s.Test} {
		for i := range part {
			ex := &part[i]
			for j := range ex.X {
				ex.X[j] = math.NaN()
			}
			for j := range ex.Seq {
				ex.Seq[j] = -1
			}
			ex.Y = -1
		}
	}
}

// eagerFleet adapts a fully materialized Federated dataset to the Fleet
// interface: every shard already exists, so Shard is a slice lookup and
// Release recycles nothing.
type eagerFleet struct{ fed *Federated }

// Fleet returns the eager Fleet view of f. Existing datasets keep
// working against the Fleet-based drivers through this adapter; only
// generators that want O(cohort) memory implement Fleet natively.
func (f *Federated) Fleet() Fleet { return eagerFleet{fed: f} }

func (e eagerFleet) NumDevices() int          { return len(e.fed.Shards) }
func (e eagerFleet) TrainSize(device int) int { return len(e.fed.Shards[device].Train) }
func (e eagerFleet) Shard(device int) *Shard  { return e.fed.Shards[device] }

// Release checks that s is this dataset's shard, as a lazy fleet refuses
// a shard it did not hand out; the dataset keeps s, so nothing is
// recycled or poisoned.
func (e eagerFleet) Release(s *Shard) {
	if s.ID < 0 || s.ID >= len(e.fed.Shards) || e.fed.Shards[s.ID] != s {
		panic("data: Release of a shard this dataset does not hold")
	}
}
