package fednet

import (
	"errors"
	"math"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"fedprox/internal/core"
	"fedprox/internal/data"
)

// stubWorker registers shards like a real worker, then misbehaves:
// depending on mode it disconnects right after registration, or accepts
// every request and never replies. It exercises the coordinator's
// failure paths without cooperating in them.
type stubMode int

const (
	stubDisconnect  stubMode = iota // close the conn after the first TrainRequest arrives
	stubSilent                      // read requests forever, never reply
	stubMislabel                    // answer every TrainRequest under the next hosted device's ID
	stubStale                       // answer with a Version the request did not carry
	stubOversized                   // answer with a length prefix over any bound, keep reading
	stubEvalRange                   // report an evaluation of device 1<<40
	stubEvalForeign                 // report an evaluation of a device another worker hosts
	stubEvalTwice                   // report the first hosted device's evaluation twice
	stubEvalNaN                     // report a NaN training loss
	stubEvalSeq                     // answer evaluation n with the reply to n-1
	stubEvalPartial                 // leave the first hosted device out of every evaluation
	stubVanish                      // close the conn right after the Welcome, before round 0
)

func runStubWorker(t *testing.T, addr string, shards []*data.Shard, mode stubMode) {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Errorf("stub worker dial: %v", err)
		return
	}
	c := newConn(raw)
	defer c.close()
	hello := Hello{}
	for _, s := range shards {
		hello.Devices = append(hello.Devices, core.DeviceReg{ID: s.ID, TrainSize: len(s.Train)})
	}
	if err := c.send(Envelope{Hello: &hello}); err != nil {
		t.Errorf("stub worker hello: %v", err)
		return
	}
	if _, err := c.recv(); err != nil { // Welcome
		t.Errorf("stub worker welcome: %v", err)
		return
	}
	if mode == stubVanish {
		return
	}
	for {
		env, err := c.recv()
		if err != nil {
			return // coordinator gave up on us
		}
		switch {
		case env.TrainRequest != nil:
			// The well-formed reply echoes the broadcast back as the
			// "solution"; each mode then breaks one thing about it.
			req := env.TrainRequest
			reply := TrainReply{Round: req.Round, Version: req.Version, Reply: core.Reply{Device: req.Device, Update: req.Update, EpochsDone: req.Epochs}}
			switch mode {
			case stubDisconnect:
				return // deferred close: vanish mid-round
			case stubSilent:
				continue // swallow the request
			case stubMislabel:
				for i, s := range shards {
					if s.ID == req.Device {
						reply.Device = shards[(i+1)%len(shards)].ID
					}
				}
			case stubStale:
				reply.Version++
			case stubOversized:
				if _, err := raw.Write([]byte{0xFF, 0xFF, 0xFF, 0x7F, kindTrainReply}); err != nil {
					return
				}
				continue
			}
			if err := c.send(Envelope{TrainReply: &reply}); err != nil {
				return
			}
		case env.EvalRequest != nil:
			// Both stubs answer evals so the run reaches the training
			// phase before the failure bites.
			reply := EvalReply{EvalReply: core.EvalReply{Seq: env.EvalRequest.Seq}}
			for _, s := range shards {
				reply.Devices = append(reply.Devices, core.DeviceEval{Device: s.ID, TrainN: len(s.Train), TestN: len(s.Test)})
			}
			if mode == stubSilent && env.EvalRequest.Seq > 1 {
				continue // after round 0 the silent stub goes fully dark
			}
			switch row := &reply.Devices[0]; mode {
			case stubEvalRange:
				row.Device = 1 << 40
			case stubEvalForeign:
				row.Device = shards[0].ID + 1 // splitShards deals round-robin: the next worker's
			case stubEvalTwice:
				reply.Devices = append(reply.Devices, *row)
			case stubEvalNaN:
				row.TrainLoss = math.NaN()
			case stubEvalSeq:
				reply.Seq--
			case stubEvalPartial:
				reply.Devices = reply.Devices[1:]
			}
			if err := c.send(Envelope{EvalReply: &reply}); err != nil {
				return
			}
		case env.Shutdown != nil:
			return
		}
	}
}

// splitShards partitions the dataset round-robin over n workers.
func splitShards(fed *data.Federated, n int) [][]*data.Shard {
	out := make([][]*data.Shard, n)
	for k := 0; k < fed.NumDevices(); k++ {
		out[k%n] = append(out[k%n], fed.Shards[k])
	}
	return out
}

// launchWithStub runs a deployment where worker 0 is a misbehaving stub
// and the rest are real. It returns the coordinator's error and whether
// the real workers all returned (none left hanging).
func launchWithStub(t *testing.T, cfg core.Config, timeout time.Duration, mode stubMode) error {
	t.Helper()
	fed, mdl := testWorkload()
	srv, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices(), RequestTimeout: timeout})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	parts := splitShards(fed, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { defer wg.Done(); runStubWorker(t, addr, parts[0], mode) }()
	for wi := 1; wi < 3; wi++ {
		w := NewWorker(mdl, parts[wi], nil)
		go func() { defer wg.Done(); _ = w.Run(addr) }()
	}

	_, runErr := srv.RunWithListener(ln)

	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("workers still blocked after the coordinator returned")
	}
	return runErr
}

func syncCfg() core.Config {
	cfg := core.FedProx(4, 6, 2, 0.01, 1)
	cfg.EvalEvery = 2
	return cfg
}

func asyncCfg() core.Config {
	cfg := syncCfg()
	cfg.Async = core.AsyncConfig{Mode: core.AsyncTotal}
	return cfg
}

// TestSyncWorkerDisconnectFailsRound: a worker that vanishes mid-round
// fails the synchronous run promptly (the protocol cannot continue
// without its devices) and releases every other worker via Shutdown.
func TestSyncWorkerDisconnectFailsRound(t *testing.T) {
	if err := launchWithStub(t, syncCfg(), 0, stubDisconnect); err == nil {
		t.Fatal("sync coordinator survived a mid-round disconnect")
	}
}

// TestSyncWorkerTimeoutFailsRound: a worker that accepts requests but
// never replies trips RequestTimeout instead of hanging the deployment.
func TestSyncWorkerTimeoutFailsRound(t *testing.T) {
	start := time.Now()
	err := launchWithStub(t, syncCfg(), 300*time.Millisecond, stubSilent)
	if err == nil {
		t.Fatal("sync coordinator survived a silent worker")
	}
	if elapsed := time.Since(start); elapsed > 8*time.Second {
		t.Fatalf("timeout took %v — deadline not applied", elapsed)
	}
}

// TestSyncBadReplyFailsRound: a reply that answers no outstanding request
// (another device's ID, a Version the request did not carry) or is not a
// frame at all (a length prefix over the bound, from a worker that stays
// connected) fails the synchronous round by name instead of being folded
// under the asked device's ID or read into memory — and releases every
// other worker.
func TestSyncBadReplyFailsRound(t *testing.T) {
	for _, mode := range []stubMode{stubMislabel, stubStale, stubOversized} {
		err := launchWithStub(t, syncCfg(), 0, mode)
		if err == nil || !strings.Contains(err.Error(), "round ") || !strings.Contains(err.Error(), " device ") {
			t.Errorf("stub mode %d: got %v, want an error naming the round and device", mode, err)
		}
		if mode == stubOversized && !errors.Is(err, ErrFrame) {
			t.Errorf("oversized frame surfaced as %v, want ErrFrame", err)
		}
	}
}

// TestAsyncBadReplyEvicted: the same three misbehaviours cost an
// asynchronous deployment that worker only — it is evicted and the run
// finishes on the others.
func TestAsyncBadReplyEvicted(t *testing.T) {
	for _, mode := range []stubMode{stubMislabel, stubStale, stubOversized} {
		if err := launchWithStub(t, asyncCfg(), 0, mode); err != nil {
			t.Errorf("stub mode %d: async coordinator did not survive: %v", mode, err)
		}
	}
}

// TestBadEvalRowsFailOrEvict: an EvalReply is a peer's word too. A row for
// a device outside the roster (which used to index the weights and panic
// the coordinator), for another worker's device, a duplicate, a NaN loss,
// rows that answer an earlier evaluation (metrics of a different model,
// which used to be averaged in) or rows missing for a hosted device (whose
// loss used to be rescaled away as if it were evicted) fail a synchronous
// evaluation by connection and device, and cost an asynchronous
// deployment that worker only.
func TestBadEvalRowsFailOrEvict(t *testing.T) {
	for _, mode := range []stubMode{stubEvalRange, stubEvalForeign, stubEvalTwice, stubEvalNaN, stubEvalSeq, stubEvalPartial} {
		err := launchWithStub(t, syncCfg(), 0, mode)
		if err == nil || !strings.Contains(err.Error(), "127.0.0.1:") || !strings.Contains(err.Error(), " device ") {
			t.Errorf("stub mode %d: got %v, want an error naming the connection and device", mode, err)
		}
		if err := launchWithStub(t, asyncCfg(), 0, mode); err != nil {
			t.Errorf("stub mode %d: async coordinator did not survive: %v", mode, err)
		}
	}
}

// TestWorkerLostBeforeRoundZero: a worker that registers and closes its
// connection before the first request is read from admission on, so it
// fails a synchronous run by name at the first evaluation and costs an
// asynchronous run that worker only.
func TestWorkerLostBeforeRoundZero(t *testing.T) {
	err := launchWithStub(t, syncCfg(), 0, stubVanish)
	if err == nil || !strings.Contains(err.Error(), "worker 127.0.0.1:") || !strings.Contains(err.Error(), "cannot continue without its workers") {
		t.Errorf("sync: got %v, want the coordinator's refusal to continue without the named worker", err)
	}
	if err := launchWithStub(t, asyncCfg(), 0, stubVanish); err != nil {
		t.Errorf("async coordinator did not survive: %v", err)
	}
}

// TestRegistrationSurvivesSilentAndGarbageDialers: a connection that
// never speaks and one whose first bytes are not a Hello frame reach the
// coordinator before the real workers; registration closes or outwaits
// them on their own goroutines and the run completes.
func TestRegistrationSurvivesSilentAndGarbageDialers(t *testing.T) {
	fed, mdl := testWorkload()
	srv, err := NewServer(mdl, ServerConfig{Training: syncCfg(), ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	silent, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	garbage, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if _, err := garbage.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, part := range splitShards(fed, 2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := NewWorker(mdl, part, nil).Run(addr); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	done := make(chan error, 1)
	go func() { _, err := srv.RunWithListener(ln); done <- err }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run failed: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("registration is blocked behind a connection that never said Hello")
	}
	wg.Wait()
	// The garbage dialer's socket was closed on its malformed first frame.
	_ = garbage.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := garbage.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Errorf("garbage dialer still connected (read: %v)", err)
	}
}

// TestSyncRefusesLateWorker: once a synchronous deployment's roster is
// full nothing consumes registrations, so a late or duplicate worker must
// be turned away at once — not left waiting for a Welcome until the run
// ends.
func TestSyncRefusesLateWorker(t *testing.T) {
	fed, mdl := testWorkload()
	srv, err := NewServer(mdl, ServerConfig{Training: syncCfg(), ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	done := make(chan error, 1)
	go func() { _, err := srv.RunWithListener(ln); done <- err }()

	// The whole roster registers on one connection that then goes quiet,
	// which holds the run open in its round-0 evaluation.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	roster := newConn(raw)
	hello := NewWorker(mdl, fed.Shards, nil).hello()
	if err := roster.send(Envelope{Hello: &hello}); err != nil {
		t.Fatal(err)
	}
	if env, err := roster.recv(); err != nil || env.Welcome == nil || env.Welcome.Err != "" {
		t.Fatalf("roster registration: %+v, %v", env, err)
	}

	late := make(chan error, 1)
	go func() { late <- NewWorker(mdl, fed.Shards[:2], nil).Run(addr) }()
	select {
	case err := <-late:
		if err == nil {
			t.Error("a worker joined a deployment whose roster was full")
		}
	case <-time.After(10 * time.Second):
		t.Error("late worker is still waiting for a Welcome")
	}
	select {
	case err := <-done:
		t.Fatalf("the run ended (%v) before the late worker was judged", err)
	default:
	}
	_ = roster.close()
	if err := <-done; err == nil {
		t.Error("the run survived losing its only worker")
	}
}

// TestAsyncWorkerDisconnectEvicted: the asynchronous coordinator treats
// a mid-round disconnect as device loss, not run failure — it finishes
// the schedule on the surviving workers.
func TestAsyncWorkerDisconnectEvicted(t *testing.T) {
	if err := launchWithStub(t, asyncCfg(), 0, stubDisconnect); err != nil {
		t.Fatalf("async coordinator did not survive a disconnect: %v", err)
	}
}

// TestAsyncWorkerTimeoutEvicted: same for a silent worker, via
// RequestTimeout.
func TestAsyncWorkerTimeoutEvicted(t *testing.T) {
	if err := launchWithStub(t, asyncCfg(), 300*time.Millisecond, stubSilent); err != nil {
		t.Fatalf("async coordinator did not survive a silent worker: %v", err)
	}
}

// TestShutdownReleasesWorkers: a successful run (either mode) must end
// with every worker's Run returning nil — the Shutdown handshake, not a
// dropped connection.
func TestShutdownReleasesWorkers(t *testing.T) {
	fed, mdl := testWorkload()
	for _, cfg := range []core.Config{syncCfg(), asyncCfg()} {
		hist, err := launch(t, fed, mdl, cfg, 3) // launch fails the test on worker errors
		if err != nil {
			t.Fatalf("%s: %v", core.Label(cfg), err)
		}
		if len(hist.Points) == 0 {
			t.Fatalf("%s: empty history", core.Label(cfg))
		}
	}
}
