package fednet

import (
	"net"
	"sync"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
	"fedprox/internal/tensor"
)

// TestF32MatchesSimulatorOverLoopback: an f32 deployment over real TCP
// reproduces the in-process simulator's f32 trajectory bit for bit —
// the same guarantee the package gives at full width, extended to the
// negotiated-precision wire. Covered on both the uncompressed f32 wire
// (raw, 4-byte coordinates) and the quantized one.
func TestF32MatchesSimulatorOverLoopback(t *testing.T) {
	fed, mdl := testWorkload()
	for _, spec := range []comm.Spec{
		{Name: "raw"},
		{Name: "delta+qsgd", Bits: 8},
	} {
		t.Run(spec.Name, func(t *testing.T) {
			cfg := core.FedProx(6, 5, 3, 0.01, 1)
			cfg.StragglerFraction = 0.5
			cfg.EvalEvery = 2
			cfg.Codec = spec
			cfg.Precision = tensor.F32

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
			for i := range sim.Points {
				sp, dp := sim.Points[i], dist.Points[i]
				if sp.TrainLoss != dp.TrainLoss || sp.TestAcc != dp.TestAcc {
					t.Fatalf("round %d: f32 deployment diverged from simulator: sim loss %.17g acc %g, dist loss %.17g acc %g",
						sp.Round, sp.TrainLoss, sp.TestAcc, dp.TrainLoss, dp.TestAcc)
				}
				sc, dc := sp.Cost, dp.Cost
				if sc.UplinkBytes != dc.UplinkBytes || sc.DownlinkBytes != dc.DownlinkBytes {
					t.Fatalf("round %d: accounting diverged: sim %+v, dist %+v", sp.Round, sc, dc)
				}
			}
		})
	}
}

// TestF32EvalBroadcastFitsTheWorkersBound: an f32 raw deployment's
// EvalRequests travel at full width (comm.NewEvalLink strips the
// precision), so they are 8·N bytes where its TrainRequests are 4·N. The
// worker must bound its frames by the larger of the two; with more than
// 1024 parameters the difference exceeds the bound's slack.
func TestF32EvalBroadcastFitsTheWorkersBound(t *testing.T) {
	gen := synthetic.Default(1, 1).Scaled(0.12)
	gen.Dim = 300
	fed := synthetic.Generate(gen)
	mdl := linear.ForDataset(fed)
	if mdl.NumParams() <= 1024 {
		t.Fatalf("the model has %d parameters; the test needs more than 1024", mdl.NumParams())
	}
	for _, codec := range []string{"raw", "delta", "delta+qsgd"} {
		cfg := core.FedProx(2, 3, 1, 0.01, 1)
		cfg.Codec = comm.Spec{Name: codec, Bits: 8}
		cfg.Precision = tensor.F32
		if _, err := launch(t, fed, mdl, cfg, 2); err != nil {
			t.Errorf("%s: %v", codec, err)
		}
	}
}

// TestPrecisionNegotiationRejection: a worker that offers only f64 (an
// old binary, say) aborts an f32 deployment on both sides at Hello
// time — before any dispatch could hit a link whose wire format the
// worker cannot produce.
func TestPrecisionNegotiationRejection(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(2, 2, 1, 0.01, 1)
	cfg.Codec = comm.Spec{Name: "raw"}
	cfg.Precision = tensor.F32
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
	w.PrecisionOffer = []string{"f64"} // predates the f32 path

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
		t.Fatal("coordinator accepted a worker that cannot run f32")
	}
	if workerErr == nil {
		t.Fatal("worker did not surface the negotiation failure")
	}
}

// TestEmptyPrecisionOfferMeansF64: a Hello without the Precisions field
// (an old worker binary) still joins an f64 deployment — the empty
// offer is read as the pre-precision wire's only width — and is
// refused by an f32 one.
func TestEmptyPrecisionOfferMeansF64(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(2, 2, 1, 0.01, 1)
	cfg.Codec = comm.Spec{Name: "raw"}
	srv, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	if msg := srv.codecOfferError(&Hello{Codecs: comm.Names()}); msg != "" {
		t.Fatalf("f64 deployment refused an empty precision offer: %s", msg)
	}

	cfg.Precision = tensor.F32
	srv32, err := NewServer(mdl, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()})
	if err != nil {
		t.Fatal(err)
	}
	if msg := srv32.codecOfferError(&Hello{Codecs: comm.Names()}); msg == "" {
		t.Fatal("f32 deployment accepted a worker with no precision offer")
	}
}
