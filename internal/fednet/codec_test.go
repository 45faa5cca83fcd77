package fednet

import (
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
)

// TestCodecsMatchSimulatorOverLoopback exercises every registered codec
// over a real TCP loopback deployment and checks the decoded trajectory
// against the simulator: bit for bit for the lossless raw codec, and
// within float tolerance for the lossy ones — the coordinator and the
// simulator derive identical rounding streams and residuals from the
// shared seed, so even lossy runs should agree to the last ulp.
func TestCodecsMatchSimulatorOverLoopback(t *testing.T) {
	fed, mdl := testWorkload()
	for _, name := range comm.Names() {
		t.Run(name, func(t *testing.T) {
			cfg := core.FedProx(6, 5, 3, 0.01, 1)
			cfg.StragglerFraction = 0.5
			cfg.EvalEvery = 2
			cfg.Codec = comm.Spec{Name: name, Bits: 8, TopK: 0.25}
			if name == "topk" {
				// Sparsifying the chained broadcast slows convergence; use
				// the asymmetric deployment shape it is meant for.
				cfg.DownlinkCodec = comm.Spec{Name: "raw"}
			}

			sim, err := core.Run(mdl, fed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := launch(t, fed, mdl, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(sim.Points) != len(dist.Points) {
				t.Fatalf("point counts differ: sim %d, dist %d", len(sim.Points), len(dist.Points))
			}
			lossless := (comm.Spec{Name: name}).Lossless()
			for i := range sim.Points {
				sp, dp := sim.Points[i], dist.Points[i]
				if lossless {
					if sp.TrainLoss != dp.TrainLoss || sp.TestAcc != dp.TestAcc {
						t.Fatalf("round %d: raw codec diverged: sim loss %.17g acc %g, dist loss %.17g acc %g",
							sp.Round, sp.TrainLoss, sp.TestAcc, dp.TrainLoss, dp.TestAcc)
					}
				} else {
					if d := math.Abs(sp.TrainLoss - dp.TrainLoss); d > 1e-9*(1+math.Abs(sp.TrainLoss)) {
						t.Fatalf("round %d: loss differs by %g (sim %.17g, dist %.17g)",
							sp.Round, d, sp.TrainLoss, dp.TrainLoss)
					}
				}
				if sp.Participants != dp.Participants {
					t.Fatalf("round %d: participants %d != %d", sp.Round, sp.Participants, dp.Participants)
				}
				// Analytic byte/epoch accounting mirrors the simulator
				// exactly: same codecs, same contacted devices.
				sc, dc := sp.Cost, dp.Cost
				if sc.UplinkBytes != dc.UplinkBytes || sc.DownlinkBytes != dc.DownlinkBytes || sc.DeviceEpochs != dc.DeviceEpochs {
					t.Fatalf("round %d: accounting diverged: sim %+v, dist %+v", sp.Round, sc, dc)
				}
			}
			// Measured wire traffic brackets the analytic payload accounting
			// from both sides: every priced byte crosses the socket, plus at
			// most 128 header bytes per message, the handshake's and the
			// evaluation replies' 40 bytes per device, and the evaluation
			// broadcasts. (Not "× 1.02": on this 610-parameter model an
			// 8-bit update is 618 bytes under a 62-byte header; the
			// per-message header ceiling is the scale-free form of the same
			// claim.)
			fin := dist.Final().Cost
			const workers = 2
			n, evals := mdl.NumParams(), int64(len(dist.Points))
			up, down := cfg.Codec, cfg.Codec
			if cfg.DownlinkCodec.Enabled() {
				down = cfg.DownlinkCodec
			}
			control := (1 + evals) * (workers*128 + 40*int64(fed.NumDevices()))
			maxUp := fin.UplinkBytes + 128*fin.UplinkBytes/up.WireSize(n) + control
			maxDown := fin.DownlinkBytes + 128*fin.DownlinkBytes/down.WireSize(n) + control + workers*evals*(down.WireSize(n)+128)
			if fin.WireUplinkBytes < fin.UplinkBytes || fin.WireUplinkBytes > maxUp ||
				fin.WireDownlinkBytes < fin.DownlinkBytes || fin.WireDownlinkBytes > maxDown {
				t.Fatalf("measured wire bytes outside [analytic, analytic + headers + control] = up [%d, %d], down [%d, %d]: %+v",
					fin.UplinkBytes, maxUp, fin.DownlinkBytes, maxDown, fin)
			}
		})
	}
}

// TestCodecNegotiationRejection: a worker that does not offer the
// coordinator's codec aborts the deployment on both sides at Hello time.
func TestCodecNegotiationRejection(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(2, 2, 1, 0.01, 1)
	cfg.Codec = comm.Spec{Name: "qsgd"}
	srv, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var shards []*data.Shard
	shards = append(shards, fed.Shards...)
	w := NewWorker(mdl, shards, nil)
	w.Offer = []string{"topk"} // refuses qsgd

	var wg sync.WaitGroup
	var workerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		workerErr = w.Run(ln.Addr().String())
	}()
	_, srvErr := srv.RunWithListener(ln)
	wg.Wait()
	if srvErr == nil {
		t.Fatal("coordinator accepted a worker that refuses its codec")
	}
	if workerErr == nil {
		t.Fatal("worker did not surface the negotiation failure")
	}
}

// TestUncompressedDeploymentMeasuresWire: even without a configured
// codec the coordinator meters actual serialized traffic.
func TestUncompressedDeploymentMeasuresWire(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(3, 4, 2, 0.01, 1)
	cfg.EvalEvery = 3
	dist, err := launch(t, fed, mdl, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	fin := dist.Final().Cost
	if fin.WireUplinkBytes == 0 || fin.WireDownlinkBytes == 0 {
		t.Fatalf("wire metering missing: %+v", fin)
	}
	if fin.UplinkBytes == 0 || fin.DownlinkBytes == 0 {
		t.Fatalf("analytic accounting missing: %+v", fin)
	}
}

// TestUncompressedAccountingMatchesSimulator: without a configured
// codec, fednet's raw wire is priced as the simulator's uncoded run
// (core.Cost) — only contacted devices download, and dropped
// stragglers' planned epochs count as waste.
func TestUncompressedAccountingMatchesSimulator(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedAvg(4, 6, 3, 0.01)
	cfg.StragglerFraction = 0.5
	cfg.EvalEvery = 2

	sim, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := launch(t, fed, mdl, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sim.Points {
		sc, dc := sim.Points[i].Cost, dist.Points[i].Cost
		if sc.UplinkBytes != dc.UplinkBytes || sc.DownlinkBytes != dc.DownlinkBytes ||
			sc.DeviceEpochs != dc.DeviceEpochs || sc.WastedEpochs != dc.WastedEpochs {
			t.Fatalf("point %d: sim cost %+v != dist cost %+v", i, sc, dc)
		}
	}
	if dist.Final().Cost.WastedEpochs == 0 {
		t.Fatal("drop policy at 50% stragglers should record wasted epochs")
	}
}

// TestNegotiationRejectionReleasesOtherWorkers: when a later worker
// fails codec negotiation, workers that already registered must receive
// Shutdown instead of blocking in recv forever.
func TestNegotiationRejectionReleasesOtherWorkers(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(2, 2, 1, 0.01, 1)
	cfg.Codec = comm.Spec{Name: "qsgd"}
	srv, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	half := fed.NumDevices() / 2
	good := NewWorker(mdl, fed.Shards[:half], nil)
	bad := NewWorker(mdl, fed.Shards[half:], nil)
	bad.Offer = []string{"raw"} // refuses qsgd

	errs := make(chan error, 2)
	go func() { errs <- good.Run(ln.Addr().String()) }()
	// Give the good worker time to register first so it is the one left
	// waiting when the bad worker aborts the deployment.
	time.Sleep(100 * time.Millisecond)
	go func() { errs <- bad.Run(ln.Addr().String()) }()

	if _, err := srv.RunWithListener(ln); err == nil {
		t.Fatal("coordinator accepted a worker that refuses its codec")
	}
	for i := 0; i < 2; i++ {
		select {
		case <-errs:
			// One worker errors (rejection), the good one exits on
			// Shutdown or connection close; either way it returned.
		case <-time.After(5 * time.Second):
			t.Fatal("a worker is still blocked after the coordinator aborted")
		}
	}
}

// TestWorkerRefusesUnofferedCodec: the worker enforces its own offer
// against the Welcome, so a coordinator cannot install a codec the
// worker declined to advertise.
func TestWorkerRefusesUnofferedCodec(t *testing.T) {
	fed, mdl := testWorkload()
	w := NewWorker(mdl, fed.Shards[:1], nil)
	w.Offer = []string{"raw"}

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- w.Serve(newConn(server)) }()

	c := newConn(client)
	if _, err := c.recv(); err != nil { // the worker's Hello
		t.Fatal(err)
	}
	spec := comm.Spec{Name: "qsgd", Seed: 1}.WithDefaults()
	if err := c.send(Envelope{Welcome: &Welcome{Downlink: spec, Uplink: spec}}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("worker accepted a codec it did not offer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not reject the unoffered codec")
	}
}
