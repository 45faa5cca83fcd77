package cli

import (
	"slices"
	"sync"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
)

// recordingFleet is a fleet that records which devices were built.
type recordingFleet struct {
	data.Source
	mu    sync.Mutex
	built []int
}

func (r *recordingFleet) Shard(k int) *data.Shard {
	r.mu.Lock()
	r.built = append(r.built, k)
	r.mu.Unlock()
	return r.Source.Shard(k)
}

// TestWorkerHostsOnlyItsDevices: a worker builds its own devices and no
// other — round-robin, worker i of W hosts i, i+W, …; under -tier edge,
// the edge's contiguous slice under edge-local IDs — and each is the
// device Generate builds, bit for bit.
func TestWorkerHostsOnlyItsDevices(t *testing.T) {
	cfg := synthetic.Default(1, 1).Scaled(0.05)
	want := synthetic.Generate(cfg)
	edge := Tier{Role: "edge", FanOut: 4}
	for _, tc := range []struct {
		name           string
		tier           Tier
		workers, index int
		devices        []int
		lo             int
	}{
		{"round-robin", Tier{}, 4, 1, []int{1, 5, 9, 13, 17, 21, 25, 29}, 0},
		{"round-robin alone", Tier{}, 1, 0, rangeOf(0, 30), 0},
		{"edge 0 of 2", edge, 2, 0, rangeOf(0, 15), 0},
		{"edge 1 of 3", edge, 3, 1, rangeOf(10, 20), 10},
	} {
		fl := &recordingFleet{Source: synthetic.NewFleet(cfg)}
		shards, err := hosted(fl, &tc.tier, tc.workers, tc.index)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		slices.Sort(fl.built)
		if !slices.Equal(fl.built, tc.devices) {
			t.Errorf("%s: built devices %v, want %v", tc.name, fl.built, tc.devices)
		}
		if len(shards) != len(tc.devices) {
			t.Fatalf("%s: %d shards, want %d", tc.name, len(shards), len(tc.devices))
		}
		for i, s := range shards {
			g := tc.devices[i]
			if s.ID != g-tc.lo {
				t.Errorf("%s: device %d hosted as %d, want %d", tc.name, g, s.ID, g-tc.lo)
			}
			w := want.Shards[g]
			if len(s.Train) != len(w.Train) || len(s.Test) != len(w.Test) ||
				s.Train[0].Y != w.Train[0].Y || s.Test[len(s.Test)-1].X[0] != w.Test[len(w.Test)-1].X[0] {
				t.Errorf("%s: device %d differs from Generate's", tc.name, g)
			}
		}
	}
	if _, err := hosted(&recordingFleet{Source: synthetic.NewFleet(cfg)}, &Tier{Role: "root", FanOut: 4}, 2, 0); err == nil {
		t.Error("a worker under -tier root was accepted")
	}
}

func rangeOf(lo, hi int) []int {
	var out []int
	for k := lo; k < hi; k++ {
		out = append(out, k)
	}
	return out
}
