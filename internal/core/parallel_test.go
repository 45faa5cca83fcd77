package core

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/data/mnistsim"
	"fedprox/internal/model/linear"
	"fedprox/internal/obs"
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
// order. The same holds for a failing round's error, and the sync codec
// path's allocation is pinned beside it (the two subtests at the end).
func TestBroadcastParallelismParity(t *testing.T) {
	t.Run("first error in selection order", broadcastFirstError)
	t.Run("round recycles its vectors", syncCodecRoundRecycles)
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
		coord, dev, err := newSimPair(mdl, fed.Fleet(), cfg)
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

// syncCodecRoundRecycles pins the sync codec path's steady-state
// allocation at Parallelism 1: a round hands its decoded vectors (each
// dispatch's broadcast view, each reply's decoded solution) back to the
// tensor pool, so a dispatch allocates well under one model vector —
// payload bytes and small structs. Dropping either hand-off costs a full
// vector per dispatch (2.5 vectors before both existed). The marginal
// cost is the difference of two runs' TotalAlloc, so one-time state (the
// per-device broadcast shadows, the History) cancels.
func syncCodecRoundRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under the race detector")
	}
	const clients, short, long = 10, 4, 24
	fed := mnistsim.GenerateScaled(0.02)
	mdl := linear.ForDataset(fed)
	allocated := func(rounds int) uint64 {
		cfg := FedProx(rounds, clients, 1, 0.03, 1)
		cfg.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8}
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
	vector := float64(8 * mdl.NumParams())
	t.Logf("%.0f B per dispatch, %.2f model vectors", perDispatch, perDispatch/vector)
	if perDispatch >= vector {
		t.Errorf("a sync codec dispatch allocates %.0f B, %.2f model vectors of %.0f B: the round's decoded vectors are not going back to the pool",
			perDispatch, perDispatch/vector, vector)
	}
}
