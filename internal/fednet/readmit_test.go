package fednet

import (
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/frand"
	"fedprox/internal/model"
	"fedprox/internal/obs"
	"fedprox/internal/solver"
)

// hookedSolver wraps a LocalSolver with a solve counter and an optional
// first-solve callback — the test's observability into which worker
// actually served training requests.
type hookedSolver struct {
	inner   solver.LocalSolver
	n       atomic.Int64
	once    sync.Once
	onFirst func()
}

func (h *hookedSolver) Name() string { return h.inner.Name() }

func (h *hookedSolver) Solve(m model.Model, train []data.Example, w0 []float64, cfg solver.Config, epochs int, rng *frand.Source) []float64 {
	h.n.Add(1)
	if h.onFirst != nil {
		h.once.Do(h.onFirst)
	}
	return h.inner.Solve(m, train, w0, cfg, epochs, rng)
}

// TestAsyncWorkerReadmission is the re-admission satellite's acceptance
// test: an asynchronous deployment loses a worker mid-run (its
// connection is killed after its first local solve), evicts its devices,
// and later re-admits a reconnecting worker hosting the same shards —
// whose devices demonstrably return to the schedule (its solver runs)
// before the run completes cleanly for every surviving endpoint. The
// run's trace re-executes it (core.Reexecute) with the eviction and the
// re-admission at their tape positions: final parameters and every
// point's loss and accuracy bit for bit.
func TestAsyncWorkerReadmission(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(10, 4, 2, 0.01, 1)
	cfg.EvalEvery = 5
	cfg.Async = core.AsyncConfig{Mode: core.AsyncTotal}

	var tape obs.Tape
	rec := cfg
	rec.Trace = &tape
	srv, err := NewServer(mdl, ServerConfig{Training: rec, ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	parts := splitShards(fed, 2)

	// The survivor paces the run so the revived worker has schedule left
	// to rejoin.
	survivor := NewWorker(mdl, parts[0], solver.Delayed{Inner: solver.SGDSolver{}, Delay: 3 * time.Millisecond})
	var wg sync.WaitGroup
	var survivorErr error
	wg.Add(1)
	go func() { defer wg.Done(); survivorErr = survivor.Run(addr) }()

	// The victim hosts the other half and dies right after its first
	// solve: the test closes its connection, the coordinator's reader
	// surfaces the error, and the devices are evicted.
	rawVictim, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	victimSolver := &hookedSolver{inner: solver.SGDSolver{}, onFirst: func() {
		_ = rawVictim.Close()
		close(killed)
	}}
	victim := NewWorker(mdl, parts[1], victimSolver)
	wg.Add(1)
	go func() { defer wg.Done(); _ = victim.Serve(newConn(rawVictim)) }() // dies with the conn

	// The revival: a fresh worker hosting the victim's shards reconnects
	// mid-run. Re-admission can race the eviction (the coordinator
	// refuses devices that are still live), so retry until admitted; an
	// admitted worker blocks until the run's Shutdown and returns nil.
	revived := &hookedSolver{inner: solver.SGDSolver{}}
	var revivedErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-killed
		replacement := NewWorker(mdl, parts[1], revived)
		for attempt := 0; attempt < 100; attempt++ {
			revivedErr = replacement.Run(addr)
			if revivedErr == nil || !strings.Contains(revivedErr.Error(), "still live") {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	hist, runErr := srv.RunWithListener(ln)
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(30 * time.Second):
		t.Fatal("workers still blocked after the coordinator returned")
	}

	if runErr != nil {
		t.Fatalf("run did not survive the kill/revive cycle: %v", runErr)
	}
	if survivorErr != nil {
		t.Fatalf("survivor worker: %v", survivorErr)
	}
	if revivedErr != nil {
		t.Fatalf("revived worker was never admitted: %v", revivedErr)
	}
	if got := revived.n.Load(); got == 0 {
		t.Fatal("revived worker served no training requests — its devices never rejoined the schedule")
	}
	if len(hist.Points) == 0 || !(hist.Final().TrainLoss < hist.Points[0].TrainLoss) {
		t.Fatalf("run did not improve across the failure: %+v", hist.Points)
	}
	if err := reexecution(mdl, fed, cfg, hist, tape, false); err != nil {
		t.Fatalf("re-executing the kill/revive cycle from its tape: %v", err)
	}
}

// TestAsyncReadmissionWithChainedCodec: re-admission composes with
// stateful codec link state — the coordinator resets the rejoining
// devices' links and ships the eval chain base, so a delta-chained
// downlink keeps decoding in lockstep after the reconnect. The run
// re-executes from its trace as TestAsyncWorkerReadmission's does; under
// delta+qsgd only if the re-execution resets the revived devices' uplink
// rounding streams, as the fresh worker's are.
func TestAsyncReadmissionWithChainedCodec(t *testing.T) {
	for _, spec := range []comm.Spec{{Name: "delta"}, {Name: "delta+qsgd", Bits: 8}} {
		t.Run(spec.Name, func(t *testing.T) {
			fed, mdl := testWorkload()
			cfg := core.FedProx(8, 4, 2, 0.01, 1)
			cfg.EvalEvery = 2 // frequent evals exercise the seeded eval chain
			cfg.Async = core.AsyncConfig{Mode: core.AsyncTotal}
			cfg.Codec = spec

			var tape obs.Tape
			rec := cfg
			rec.Trace = &tape
			srv, err := NewServer(mdl, ServerConfig{Training: rec, ExpectDevices: fed.NumDevices()})
			if err != nil {
				t.Fatal(err)
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			addr := ln.Addr().String()
			parts := splitShards(fed, 2)

			survivor := NewWorker(mdl, parts[0], solver.Delayed{Inner: solver.SGDSolver{}, Delay: 3 * time.Millisecond})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { defer wg.Done(); _ = survivor.Run(addr) }()

			rawVictim, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			killed := make(chan struct{})
			victim := NewWorker(mdl, parts[1], &hookedSolver{inner: solver.SGDSolver{}, onFirst: func() {
				_ = rawVictim.Close()
				close(killed)
			}})
			wg.Add(1)
			go func() { defer wg.Done(); _ = victim.Serve(newConn(rawVictim)) }()

			revived := &hookedSolver{inner: solver.SGDSolver{}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-killed
				replacement := NewWorker(mdl, parts[1], revived)
				for attempt := 0; attempt < 100; attempt++ {
					if err := replacement.Run(addr); err == nil || !strings.Contains(err.Error(), "still live") {
						return
					}
					time.Sleep(20 * time.Millisecond)
				}
			}()

			hist, runErr := srv.RunWithListener(ln)
			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(30 * time.Second):
				t.Fatal("workers still blocked after the coordinator returned")
			}
			if runErr != nil {
				t.Fatalf("chained-codec run did not survive the kill/revive cycle: %v", runErr)
			}
			if len(hist.Points) == 0 || !(hist.Final().TrainLoss < hist.Points[0].TrainLoss) {
				t.Fatalf("chained-codec run did not improve across the failure: %+v", hist.Points)
			}
			if err := reexecution(mdl, fed, cfg, hist, tape, false); err != nil {
				t.Fatalf("re-executing the kill/revive cycle from its tape: %v", err)
			}
		})
	}
}
