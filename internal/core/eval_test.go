package core

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/metrics"
	"fedprox/internal/model/linear"
	"fedprox/internal/tier"
)

// countingFleet counts every device's shard materializations and
// releases, those of dispatches and those of evaluations alike, and
// counts as a stray every Release of a pointer that no outstanding Shard
// call returned.
type countingFleet struct {
	data.Fleet
	shards, releases []atomic.Int64
	strays           atomic.Int64

	mu  sync.Mutex
	out map[*data.Shard]int // shards handed out and not yet released
}

func newCountingFleet(fl data.Fleet) *countingFleet {
	n := fl.NumDevices()
	return &countingFleet{Fleet: fl, shards: make([]atomic.Int64, n), releases: make([]atomic.Int64, n), out: map[*data.Shard]int{}}
}

func (c *countingFleet) Shard(device int) *data.Shard {
	c.shards[device].Add(1)
	s := c.Fleet.Shard(device)
	c.mu.Lock()
	c.out[s]++
	c.mu.Unlock()
	return s
}

func (c *countingFleet) Release(s *data.Shard) {
	c.mu.Lock()
	if c.out[s] == 0 {
		c.strays.Add(1)
	} else if c.out[s]--; c.out[s] == 0 {
		delete(c.out, s)
	}
	c.mu.Unlock()
	c.releases[s.ID].Add(1)
	c.Fleet.Release(s)
}

// TestEvaluateVisitsEachShardOnce: an Evaluate costs exactly one Shard
// and one Release per device on every in-process executor — on a lazy
// fleet a visit is a shard synthesis, and the two-pass evaluation paid
// two. A dispatch is one visit of its device, so device k's visits must
// equal its contacts plus the number of evaluated points, and every
// Release must name a shard Shard returned. The counted runs, over the
// eager dataset and over the lazy fleet that recycles released shards,
// must give the uncounted run's History.
func TestEvaluateVisitsEachShardOnce(t *testing.T) {
	m, fed := tinyWorkload()
	lazy := synthetic.Default(1, 1).Scaled(0.12) // tinyWorkload's config
	n := fed.NumDevices()
	// Full participation: every device is contacted once per round.
	syncAll := FedProx(4, n, 2, 0.01, 1)
	syncAll.EvalEvery = 2
	everyRound := func(*History) []int {
		contacts := make([]int, n)
		for k := range contacts {
			contacts[k] = syncAll.Rounds
		}
		return contacts
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		run      func(fl Fleet, cfg Config) (*History, error)
		contacts func(h *History) []int
	}{
		{"RunFleet sync", syncAll, func(fl Fleet, cfg Config) (*History, error) { return RunFleet(m, fl, cfg) }, everyRound},
		{
			"RunFleet AsyncTotal on vtime", vtimeAsyncConfig(AsyncTotal, n),
			func(fl Fleet, cfg Config) (*History, error) { return RunFleet(m, fl, cfg) },
			// No reply is lost under this latency model, so the arrival
			// trace lists every dispatch.
			func(h *History) []int {
				contacts := make([]int, n)
				for _, a := range h.Arrivals {
					contacts[a.Device]++
				}
				return contacts
			},
		},
		{
			// 15 leaf edges of 2 devices each, all selected every window.
			"RunTiered", syncAll,
			func(fl Fleet, cfg Config) (*History, error) {
				return RunTiered(m, fl, cfg, tier.Topology{FanOut: 2, Depth: 1})
			},
			everyRound,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.run(fed.Fleet(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, under := range map[string]Fleet{"eager": fed.Fleet(), "lazy": synthetic.NewFleet(lazy)} {
				fl := newCountingFleet(under)
				got, err := tc.run(fl, tc.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !historiesEqual(got, want) {
					t.Fatalf("%s: counting the fleet's calls changed the History", name)
				}
				contacts := tc.contacts(got)
				for k := 0; k < n; k++ {
					visits := int64(contacts[k] + len(got.Points))
					if s, r := fl.shards[k].Load(), fl.releases[k].Load(); s != visits || r != visits {
						t.Fatalf("%s device %d: %d Shard / %d Release calls, want %d each (%d contacts + %d evaluations)",
							name, k, s, r, visits, contacts[k], len(got.Points))
					}
				}
				if fl.strays.Load() != 0 || len(fl.out) != 0 {
					t.Fatalf("%s: %d Release calls of a pointer Shard had not returned, %d shards never released",
						name, fl.strays.Load(), len(fl.out))
				}
			}
		})
	}
}

// TestHandleEvalMatchesShardEval: the wire evaluation's per-device
// contributions are metrics.ShardEval's, on shard-hosting and on
// fleet-hosting runtimes, so the in-process evaluation (FleetEval, the
// same kernel) and the fednet one cannot drift.
func TestHandleEvalMatchesShardEval(t *testing.T) {
	cfg := synthetic.Default(1, 1).Scaled(0.1)
	fed := synthetic.Generate(cfg)
	mdl := linear.ForDataset(fed)
	w := mdl.InitParams(frand.New(5))
	for name, dev := range map[string]*Device{
		"shards": NewDevice(mdl, fed.Shards, DeviceOptions{}),
		"fleet":  newFleetDevice(mdl, synthetic.NewFleet(cfg), DeviceOptions{}),
	} {
		reply, err := dev.HandleEval(EvalRequest{Seq: 1, Params: w})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(reply.Devices) != fed.NumDevices() {
			t.Fatalf("%s: eval reported %d devices, want %d", name, len(reply.Devices), fed.NumDevices())
		}
		for _, ev := range reply.Devices {
			s := fed.Shards[ev.Device]
			loss, correct := metrics.ShardEval(mdl, w, s)
			if ev.TrainLoss != loss || ev.Correct != correct || ev.TrainN != len(s.Train) || ev.TestN != len(s.Test) {
				t.Fatalf("%s: device %d: HandleEval = %+v, ShardEval = (%v, %d) over %d/%d examples",
					name, ev.Device, ev, loss, correct, len(s.Train), len(s.Test))
			}
		}
	}
}

// TestCombineEvalsRescalesOnlyMissingRows pins the rule that keeps a
// synchronous run's loss on the simulator's bits: a full roster is summed
// with its weights as they are, although they add up to 1 only to within
// an ulp, and only a roster with rows missing is divided by the mass that
// reported.
func TestCombineEvalsRescalesOnlyMissingRows(t *testing.T) {
	sizes := []float64{9, 28, 66, 129, 250, 13, 38, 55} // p_k sum to 1 - 1 ulp
	total := 0.0
	for _, n := range sizes {
		total += n
	}
	weights := make([]float64, len(sizes))
	rows := make([]DeviceEval, len(sizes))
	for k, n := range sizes {
		weights[k] = n / total
		rows[k] = DeviceEval{Device: k, TrainLoss: 0.3 + float64(k)}
	}
	sum := func(rows []DeviceEval) (loss, mass float64) {
		for _, ev := range rows {
			loss += weights[ev.Device] * ev.TrainLoss
			mass += weights[ev.Device]
		}
		return loss, mass
	}
	want, mass := sum(rows)
	if mass == 1 || want/mass == want {
		t.Fatalf("fixture cannot tell: the weights sum to %v and rescaling is a no-op", mass)
	}
	c := &Coordinator{weights: weights}
	if got, _ := c.CombineEvals(rows); math.Float64bits(got.TrainLoss) != math.Float64bits(want) {
		t.Errorf("full roster: loss %.17g, want the plain weighted sum %.17g (rescaled would be %.17g)", got.TrainLoss, want, want/mass)
	}
	part, mass := sum(rows[1:])
	if got, _ := c.CombineEvals(rows[1:]); math.Float64bits(got.TrainLoss) != math.Float64bits(part/mass) {
		t.Errorf("row missing: loss %.17g, want %.17g rescaled by the reporting mass %v", got.TrainLoss, part/mass, mass)
	}
}
