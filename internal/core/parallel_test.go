package core

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/model/linear"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
)

// TestVTimeParallelismParity is the solve pool's correctness bar: a
// virtual-time run at any Parallelism produces the bit-identical
// History AND the byte-identical JSONL trace of the serial run. The
// pool may only parallelize the solves between event-queue pops; every
// observable ordering (arrivals, folds, trace emission) stays the
// event queue's.
func TestVTimeParallelismParity(t *testing.T) {
	for _, mode := range []AggregationMode{AsyncTotal, Buffered} {
		t.Run(mode.String(), func(t *testing.T) {
			run := func(par int) (*History, []byte) {
				mdl, fed := tinyWorkload()
				cfg := vtimeAsyncConfig(mode, fed.NumDevices())
				if mode == Buffered {
					cfg.Async.BufferK = 3
				}
				cfg.Parallelism = par
				var buf bytes.Buffer
				cfg.Trace = obs.NewJSONL(&buf)
				h, err := Run(mdl, fed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return h, buf.Bytes()
			}
			serialH, serialTrace := run(1)
			if len(serialTrace) == 0 {
				t.Fatal("serial run emitted no trace")
			}
			for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
				h, trace := run(par)
				if !historiesEqual(serialH, h) {
					t.Errorf("Parallelism=%d history differs from serial", par)
				}
				if !bytes.Equal(serialTrace, trace) {
					t.Errorf("Parallelism=%d trace differs from serial (%d vs %d bytes)",
						par, len(serialTrace), len(trace))
				}
			}
		})
	}
}

// TestSyncParallelismParity: the synchronous driver's bounded fan-out
// keeps the same contract — replies land in selection order regardless
// of solve completion order. At 2 the calling goroutine is one of two
// workers; 16 is above the cohort of 5, so the worker count is clamped.
func TestSyncParallelismParity(t *testing.T) {
	run := func(par int) (*History, []byte) {
		mdl, fed := tinyWorkload()
		cfg := FedProx(5, 5, 3, 0.01, 1)
		cfg.StragglerFraction = 0.5
		cfg.EvalEvery = 2
		cfg.Parallelism = par
		var buf bytes.Buffer
		cfg.Trace = obs.NewJSONL(&buf)
		h, err := Run(mdl, fed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h, buf.Bytes()
	}
	serialH, serialTrace := run(1)
	for _, par := range []int{2, 4, 16, runtime.GOMAXPROCS(0)} {
		h, trace := run(par)
		if !historiesEqual(serialH, h) {
			t.Errorf("Parallelism=%d sync history differs from serial", par)
		}
		if !bytes.Equal(serialTrace, trace) {
			t.Errorf("Parallelism=%d sync trace differs from serial", par)
		}
	}
}

// TestBroadcastParallelismParity holds the coordinator's parallel
// broadcast to the solve pool's bar: under a codec a round's downlink
// encodes run on Config.Parallelism workers, and the History (every
// Point's Cost included) and the JSONL trace are those of the serial run
// byte for byte — each device's encode advances only that device's link
// state, and everything observable is built afterwards in selection
// order. The same holds for a failing round's error, and a sync round's
// allocation, with a codec and without, is pinned beside it (the first
// two subtests).
func TestBroadcastParallelismParity(t *testing.T) {
	t.Run("first error in selection order", broadcastFirstError)
	t.Run("round recycles its vectors", syncRoundRecycles)
	qsgd := comm.Spec{Name: "delta+qsgd", Bits: 8}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"delta+qsgd both ways", func(c *Config) { c.Codec = qsgd }},
		{"topk up, raw down", func(c *Config) {
			c.Codec = comm.Spec{Name: "topk"}
			c.DownlinkCodec = comm.Spec{Name: "raw"}
		}},
		{"delta+qsgd at f32", func(c *Config) { c.Codec, c.Precision = qsgd, tensor.F32 }},
		// Dropped stragglers are never contacted: their slots stay empty
		// and their link state untouched, whichever worker skips them.
		{"drop stragglers", func(c *Config) { c.Codec, c.Straggler = qsgd, DropStragglers }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(par int) (*History, []byte) {
				mdl, fed := tinyWorkload()
				cfg := FedProx(5, 6, 2, 0.01, 1)
				cfg.StragglerFraction = 0.5
				cfg.EvalEvery = 2
				tc.edit(&cfg)
				cfg.Parallelism = par
				var buf bytes.Buffer
				cfg.Trace = obs.NewJSONL(&buf)
				h, err := Run(mdl, fed, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return h, buf.Bytes()
			}
			serialH, serialTrace := run(1)
			if !bytes.Contains(serialTrace, []byte(`"kind":"dispatch"`)) {
				t.Fatal("serial run dispatched nothing")
			}
			for _, par := range []int{2, 4} {
				h, trace := run(par)
				if !historiesEqual(serialH, h) {
					t.Errorf("Parallelism=%d history differs from serial", par)
				}
				if !bytes.Equal(serialTrace, trace) {
					t.Errorf("Parallelism=%d trace differs from serial", par)
				}
			}
		})
	}
}

// broadcastFirstError: when several of a round's broadcasts fail, the
// round reports the failure of the lowest selection index at any
// Parallelism, not of whichever worker finished first.
func broadcastFirstError(t *testing.T) {
	sized, _ := tinyWorkload()
	// The last case's shadow is longer than the model: the encoder used to
	// index past the vector there, a panic inside the broadcast's workers.
	for _, tc := range []struct{ par, shadow int }{{1, 3}, {2, 3}, {4, 3}, {2, sized.NumParams() + 3}} {
		par, shadow := tc.par, tc.shadow
		mdl, fed := tinyWorkload()
		cfg := FedProx(2, 6, 1, 0.01, 1)
		cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}
		cfg.Parallelism = par
		coord, dev, err := newSimPair(mdl, fed.Fleet(), cfg, CoordinatorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// Start builds the links and returns round 0's evaluation; the
		// round's broadcasts are encoded when Drive answers it. A broadcast
		// shadow of the wrong length makes the downlink decode of exactly
		// these two devices fail — and must not panic their encode.
		cmds, err := coord.Start()
		if err != nil {
			t.Fatal(err)
		}
		selected := coord.selectDevices(0)
		first, last := selected[0], selected[len(selected)-1]
		for _, k := range []int{first, last} {
			coord.links.state.SetPrev(k, make([]float64, shadow))
		}
		b := &simBackend{inProcess: inProcess{
			coord: coord,
			eval:  func(v Evaluate) EvalResult { return simEval(mdl, fed.Fleet(), v) },
		}}
		b.serve = func(ds []Dispatch) ([]Reply, error) { return runDispatches(dev, par, nil, ds) }
		_, err = Drive(coord, b, cmds)
		want := fmt.Sprintf("downlink decode for device %d:", first)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parallelism=%d: error %v, want the one naming %q (selection index 0, not device %d's)", par, err, want, last)
		}
	}
}

// syncRoundRecycles pins a sync round's steady-state allocation at
// Parallelism 1, under a codec and without one: a round hands its vectors
// (each dispatch's decoded broadcast view, each reply's solution, decoded
// or raw) back to the tensor pool, so a dispatch allocates well under one
// model vector — payload bytes and small structs. Dropping any hand-off
// costs a full vector per dispatch (2.5 vectors under the codec before
// the views and decoded solutions were recycled; 1.05 without one while a
// raw solution was left to the collector). The marginal cost is the
// difference of two runs' TotalAlloc, so one-time state (the per-device
// broadcast shadows, the History) cancels.
func syncRoundRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const clients, short, long = 10, 4, 24
	fed := mnistsim.GenerateScaled(0.02)
	mdl := linear.ForDataset(fed)
	vector := float64(8 * mdl.NumParams())
	for _, codec := range []comm.Spec{{Name: "delta+qsgd", Bits: 8}, {}} {
		allocated := func(rounds int) uint64 {
			cfg := FedProx(rounds, clients, 1, 0.03, 1)
			cfg.Codec = codec
			cfg.EvalEvery = rounds
			cfg.Parallelism = 1
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Run(mdl, fed, cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		allocated(short) // warm the pool
		perDispatch := float64(allocated(long)-allocated(short)) / float64((long-short)*clients)
		t.Logf("codec %q: %.0f B per dispatch, %.2f model vectors", codec.Name, perDispatch, perDispatch/vector)
		if perDispatch >= vector {
			t.Errorf("codec %q: a sync dispatch allocates %.0f B, %.2f model vectors of %.0f B: the round's vectors are not going back to the pool",
				codec.Name, perDispatch, perDispatch/vector, vector)
		}
	}
}

// solveRecorder is SGD that records, in the order the solves start, each
// one's train set and epoch count.
type solveRecorder struct {
	solver.SGDSolver
	mu    sync.Mutex
	calls []recordedSolve
}

type recordedSolve struct {
	first        *data.Example // identifies the device's shard
	epochs, size int
}

func (r *solveRecorder) Solve(m model.Model, train []data.Example, w0 []float64, cfg solver.Config, epochs int, rng *frand.Source) []float64 {
	r.mu.Lock()
	r.calls = append(r.calls, recordedSolve{&train[0], epochs, len(train)})
	r.mu.Unlock()
	return r.SGDSolver.Solve(m, train, w0, cfg, epochs, rng)
}

// roundBudget grants a dispatch 1 to requested epochs by round and device.
type roundBudget struct{}

func (roundBudget) EpochBudget(round, device, requested int) int {
	return 1 + (3*round+device)%requested
}

// dispatchRecorder keeps the coordinator's dispatch events: each round's
// devices in selection order.
type dispatchRecorder struct{ rounds [][]int }

func (d *dispatchRecorder) Emit(e obs.Event) {
	if e.Kind != obs.KindDispatch {
		return
	}
	for len(d.rounds) <= e.Round {
		d.rounds = append(d.rounds, nil)
	}
	d.rounds[e.Round] = append(d.rounds[e.Round], e.Device)
}

// TestSyncParallelFanOutLongestFirst: a synchronous round hands its solves
// to the workers longest first. At Parallelism 1 the solves run in exactly
// that order: descending min(Epochs, EpochBudget) × train size, ties in
// selection order, over a round of stragglers (random 1–E epoch targets)
// under a device-side budget, on shards of three sizes so both orderings
// and ties occur.
func TestSyncParallelFanOutLongestFirst(t *testing.T) {
	fed := synthetic.Generate(synthetic.Config{
		Alpha: 1, Beta: 1, Devices: 12, Dim: 10, Classes: 5,
		MinSamples: 10, MaxSamples: 13, PowerAlpha: 1.55, TrainFrac: 0.8, Seed: 5,
	})
	device := make(map[*data.Example]int)
	for _, s := range fed.Shards {
		device[&s.Train[0]] = s.ID
	}
	rec, sel := &solveRecorder{}, &dispatchRecorder{}
	cfg := FedProx(8, 6, 5, 0.01, 1)
	cfg.StragglerFraction = 0.5
	cfg.DeviceBudget = roundBudget{}
	cfg.Solver = rec
	cfg.Trace = sel
	cfg.Parallelism = 1
	if _, err := Run(linear.ForDataset(fed), fed, cfg); err != nil {
		t.Fatal(err)
	}
	reordered, ties := 0, 0
	calls := rec.calls
	for r, selected := range sel.rounds {
		if len(calls) < len(selected) {
			t.Fatalf("round %d selected %d devices, %d solves left", r, len(selected), len(calls))
		}
		ran, work := make([]int, len(selected)), make(map[int]int)
		for i, c := range calls[:len(selected)] {
			ran[i] = device[c.first]
			work[ran[i]] = c.epochs * c.size
		}
		calls = calls[len(selected):]
		want := slices.Clone(selected)
		slices.SortStableFunc(want, func(a, b int) int { return work[b] - work[a] })
		if !slices.Equal(ran, want) {
			t.Fatalf("round %d: solves ran for devices %v, want %v (selection %v, work %v)", r, ran, want, selected, work)
		}
		if !slices.Equal(ran, selected) {
			reordered++
		}
		for i := 1; i < len(want); i++ {
			if work[want[i]] == work[want[i-1]] {
				ties++
			}
		}
	}
	if len(calls) != 0 || len(sel.rounds) != cfg.Rounds {
		t.Fatalf("%d rounds of dispatches, %d solves unaccounted for", len(sel.rounds), len(calls))
	}
	if reordered == 0 || ties == 0 {
		t.Fatalf("%d rounds reordered, %d ties: the config does not exercise the ordering", reordered, ties)
	}
}
