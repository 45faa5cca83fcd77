package fednet

import (
	"math"
	"net"
	"reflect"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/frand"
	"fedprox/internal/privacy"
)

// TestDeviceDispatchParityWithWorker is the device-level half of the
// package's parity guarantee: the same Dispatch served by the
// simulator's in-process core.Device and by a fednet.Worker over a real
// loopback connection yields a bit-identical encoded uplink update —
// for the raw codec and for a stateful chained codec, across several
// sequential dispatches (the chains and rounding streams must advance
// in lockstep), and with a device-side epoch budget in effect.
func TestDeviceDispatchParityWithWorker(t *testing.T) {
	fed, mdl := testWorkload()
	shard := fed.Shards[0]

	cases := []struct {
		name string
		spec comm.Spec
	}{
		{"raw", comm.Spec{Name: "raw", Seed: 11}},
		{"delta+qsgd", comm.Spec{Name: "delta+qsgd", Bits: 8, Seed: 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := tc.spec.WithDefaults()

			// The in-process device, exactly as core.Run constructs it.
			simDev := core.NewDevice(mdl, fed.Shards[:1], core.DeviceOptions{})
			if err := simDev.InstallLinks(spec, spec); err != nil {
				t.Fatal(err)
			}

			// The worker, served over a real TCP loopback connection with
			// the same negotiated specs.
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			w := NewWorker(mdl, fed.Shards[:1], nil)
			done := make(chan error, 1)
			go func() { done <- w.Run(ln.Addr().String()) }()
			raw, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			c := newConn(raw)
			defer c.close()
			env, err := c.recv()
			if err != nil {
				t.Fatal(err)
			}
			if env.Hello == nil {
				t.Fatalf("expected Hello, got %+v", env)
			}
			if err := c.send(Envelope{Welcome: &Welcome{Downlink: spec, Uplink: spec}}); err != nil {
				t.Fatal(err)
			}

			// The coordinator's half of the link: encode each round's
			// broadcast once, ship the same bytes to both devices.
			srvLinks, err := comm.NewLinkState(spec, spec)
			if err != nil {
				t.Fatal(err)
			}
			w0 := mdl.InitParams(frand.New(3))
			wt := append([]float64(nil), w0...)
			for round := 0; round < 3; round++ {
				enc, _, err := srvLinks.Link(shard.ID)
				if err != nil {
					t.Fatal(err)
				}
				prev := srvLinks.Prev(shard.ID)
				u := enc.Encode(wt, prev)
				view, err := enc.Decode(u, prev)
				if err != nil {
					t.Fatal(err)
				}
				srvLinks.SetPrev(shard.ID, view)

				d := core.Dispatch{
					Round:        round,
					Version:      round,
					Device:       shard.ID,
					Epochs:       5,
					EpochBudget:  2, // the device, not the server, truncates
					Mu:           1,
					LearningRate: 0.01,
					BatchSize:    10,
					BatchSeed:    frand.New(uint64(100 + round)).State(),
					Update:       u,
				}
				// The worker goes first: the sim device releases d.Update once
				// it has decoded it (comm.Update.Release), and the two share it.
				if err := c.send(Envelope{TrainRequest: &d}); err != nil {
					t.Fatal(err)
				}
				renv, err := c.recv()
				if err != nil {
					t.Fatal(err)
				}
				if renv.TrainReply == nil || renv.TrainReply.Err != "" {
					t.Fatalf("bad train reply: %+v", renv)
				}
				simReply, err := simDev.HandleDispatch(d)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := renv.TrainReply.EpochsDone, 2; got != want {
					t.Fatalf("round %d: worker ran %d epochs, want the budget %d", round, got, want)
				}
				if simReply.EpochsDone != renv.TrainReply.EpochsDone {
					t.Fatalf("round %d: EpochsDone %d != %d", round, simReply.EpochsDone, renv.TrainReply.EpochsDone)
				}
				if !reflect.DeepEqual(*simReply.Update, *renv.TrainReply.Update) {
					t.Fatalf("round %d: encoded uplink updates differ between the sim device and the worker", round)
				}
				// Perturb the model so the next broadcast exercises the chain.
				for i := range wt {
					wt[i] += 0.01 * float64(i%3)
				}
			}
			if err := c.send(Envelope{Shutdown: &Shutdown{}}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("worker: %v", err)
			}
		})
	}
}

// loopbackBudget grants every dispatch the same epoch allowance.
type loopbackBudget int

func (b loopbackBudget) EpochBudget(tag, device, requested int) int { return int(b) }

// TestDeviceBudgetLoopbackMatchesSimulator extends the executor-parity
// guarantee to the variable-work axis: a fednet run whose workers
// truncate at their device-side budget reproduces the simulator's
// trajectory — and its realized-work accounting — bit for bit.
func TestDeviceBudgetLoopbackMatchesSimulator(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(6, 5, 8, 0.01, 1)
	cfg.EvalEvery = 2
	cfg.DeviceBudget = loopbackBudget(3)

	sim, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := launch(t, fed, mdl, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sim.Points) != len(dist.Points) {
		t.Fatalf("point counts differ: sim %d, dist %d", len(sim.Points), len(dist.Points))
	}
	for i := range sim.Points {
		sp, dp := sim.Points[i], dist.Points[i]
		if sp.TrainLoss != dp.TrainLoss {
			t.Fatalf("round %d: sim loss %.17g != dist loss %.17g", sp.Round, sp.TrainLoss, dp.TrainLoss)
		}
		if math.Float64bits(sp.MeanEpochsDone) != math.Float64bits(dp.MeanEpochsDone) ||
			math.Float64bits(sp.PartialFraction) != math.Float64bits(dp.PartialFraction) {
			t.Fatalf("round %d: work columns differ: sim (%g, %g) vs dist (%g, %g)", sp.Round,
				sp.MeanEpochsDone, sp.PartialFraction, dp.MeanEpochsDone, dp.PartialFraction)
		}
		if sp.Cost.DeviceEpochs != dp.Cost.DeviceEpochs {
			t.Fatalf("round %d: sim charged %d device epochs, dist %d", sp.Round,
				sp.Cost.DeviceEpochs, dp.Cost.DeviceEpochs)
		}
	}
}

// TestWorkerPrivacyIsApplied: a worker built with a privacy mechanism
// noises its uplinks — the device-side DP hook is reachable in a fednet
// deployment and actually changes what leaves the device — and the
// noise stream advances with the wire's PrivacyTag: two dispatches of
// different rounds must not share a noise vector (an observer could
// difference two uplinks to cancel reused noise exactly).
func TestWorkerPrivacyIsApplied(t *testing.T) {
	fed, mdl := testWorkload()
	shards := fed.Shards[:1]
	req := func(tag int) *core.Dispatch {
		return &core.Dispatch{
			Device: shards[0].ID,
			Epochs: 1, Mu: 1, LearningRate: 0.01, BatchSize: 10,
			BatchSeed:  frand.New(9).State(),
			PrivacyTag: tag,
			Update:     rawUpdate(t, mdl.InitParams(frand.New(3))),
		}
	}
	mech := func() *privacy.Mechanism {
		return &privacy.Mechanism{ClipNorm: 0.5, NoiseStd: 0.01, Seed: 5}
	}
	plain := NewWorker(mdl, shards, nil).train(req(0))
	noised := NewWorkerWithOptions(mdl, shards, core.DeviceOptions{Privacy: mech()}).train(req(0))
	if plain.Err != "" || noised.Err != "" {
		t.Fatalf("train failed: %q / %q", plain.Err, noised.Err)
	}
	if reflect.DeepEqual(plain.Update, noised.Update) {
		t.Fatal("privacy mechanism left the uplink unchanged")
	}
	// Identical request, different round tag: fresh noise. (Fresh workers
	// so the raw links' state is identical across the two calls.)
	tag0 := NewWorkerWithOptions(mdl, shards, core.DeviceOptions{Privacy: mech()}).train(req(0))
	tag1 := NewWorkerWithOptions(mdl, shards, core.DeviceOptions{Privacy: mech()}).train(req(1))
	if reflect.DeepEqual(tag0.Update, tag1.Update) {
		t.Fatal("privacy noise did not advance with the dispatch's PrivacyTag — noise vectors are being reused across rounds")
	}
}

// TestWorkerEvalOrderDeterministic: the eval reply lists hosted devices
// in ascending ID order — the wire output no longer depends on map
// iteration order.
func TestWorkerEvalOrderDeterministic(t *testing.T) {
	fed, mdl := testWorkload()
	w := NewWorker(mdl, fed.Shards, nil)
	params := mdl.InitParams(frand.New(3))
	for trial := 0; trial < 3; trial++ {
		reply := w.eval(&core.EvalRequest{Seq: trial, Update: rawUpdate(t, params)})
		if reply.Err != "" {
			t.Fatal(reply.Err)
		}
		for i := 1; i < len(reply.Devices); i++ {
			if reply.Devices[i-1].Device >= reply.Devices[i].Device {
				t.Fatalf("trial %d: eval devices out of order at %d", trial, i)
			}
		}
	}
}
