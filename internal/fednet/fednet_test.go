package fednet

import (
	"strings"
	"testing"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/data/synthetic"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/syshet"
)

func testWorkload() (*data.Federated, *linear.Model) {
	fed := synthetic.Generate(synthetic.Default(1, 1).Scaled(0.12))
	return fed, linear.ForDataset(fed)
}

// launch starts a coordinator on an ephemeral loopback port and `workers`
// workers that partition the dataset's shards round-robin. It returns the
// trajectory.
func launch(t *testing.T, fed *data.Federated, mdl *linear.Model, cfg core.Config, workers int) (*core.History, error) {
	t.Helper()
	return RunLoopback(mdl, fed, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()}, make([]solver.LocalSolver, workers))
}

// TestDistributedMatchesSimulator is the package's defining guarantee:
// a fednet run reproduces the simulator's trajectory bit for bit under
// the same configuration and seed — under designated stragglers, under a
// capability fleet's server-side epoch plan with either straggler policy
// (the plan reaches a worker as TrainRequest.Epochs like any other), and
// under a lossy chained codec when one slow worker makes every round's
// replies reach the coordinator out of dispatch order: the coordinator
// slots a reply by its selection index, so arrival order is free.
func TestDistributedMatchesSimulator(t *testing.T) {
	fed, mdl := testWorkload()
	base := core.FedProx(6, 5, 3, 0.01, 1)
	base.EvalEvery = 2
	sizes, mean := fed.TrainSizes(), 0
	for _, n := range sizes {
		mean += n / len(sizes)
	}
	// Two hardware tiers under a deadline only the fast one meets.
	fleet := syshet.NewFleet(syshet.Config{
		Deadline:  syshet.DeadlineFor(base.LocalEpochs, mean, base.BatchSize, 10),
		Tiers:     []syshet.Tier{{Name: "fast", Share: 0.4, Speed: 40}, {Name: "slow", Share: 0.6, Speed: 4}},
		BatchSize: base.BatchSize,
		Seed:      5,
	}, sizes)
	slowest := []solver.LocalSolver{nil, solver.Delayed{Inner: solver.SGDSolver{}, Delay: 2 * time.Millisecond}, nil}
	cases := []struct {
		name    string
		tweak   func(*core.Config)
		solvers []solver.LocalSolver
	}{
		{"designated stragglers", func(c *core.Config) { c.StragglerFraction = 0.5 }, make([]solver.LocalSolver, 3)},
		{"capability fleet, partial work aggregated", func(c *core.Config) { c.Capability = fleet }, make([]solver.LocalSolver, 3)},
		{"capability fleet, stragglers dropped", func(c *core.Config) { c.Capability = fleet; c.Straggler = core.DropStragglers }, make([]solver.LocalSolver, 3)},
		{"delta+qsgd, replies out of dispatch order", func(c *core.Config) { c.Codec = comm.Spec{Name: "delta+qsgd", Bits: 8} }, slowest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.tweak(&cfg)
			sim, err := core.Run(mdl, fed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			dist, err := RunLoopback(mdl, fed, ServerConfig{Training: cfg, ExpectDevices: fed.NumDevices()}, tc.solvers)
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
				if sp.TestAcc != dp.TestAcc {
					t.Fatalf("round %d: sim acc %g != dist acc %g", sp.Round, sp.TestAcc, dp.TestAcc)
				}
				if sp.Participants != dp.Participants {
					t.Fatalf("round %d: participants %d != %d", sp.Round, sp.Participants, dp.Participants)
				}
				if sp.Cost.DeviceEpochs != dp.Cost.DeviceEpochs || sp.Cost.UplinkBytes != dp.Cost.UplinkBytes {
					t.Fatalf("round %d: accounting diverged: sim %+v, dist %+v", sp.Round, sp.Cost, dp.Cost)
				}
			}
			if cfg.Capability != nil && cfg.Straggler == core.DropStragglers {
				if got := dist.Final().Participants; got == 0 || got == cfg.ClientsPerRound {
					t.Fatalf("%d of %d participants: the fleet's plan dropped nobody or everybody", got, cfg.ClientsPerRound)
				}
			}
		})
	}
}

func TestDistributedWeightedSamplingScheme(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(4, 5, 3, 0.01, 0)
	cfg.Sampling = core.WeightedSimpleAvg
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
		if sim.Points[i].TrainLoss != dist.Points[i].TrainLoss {
			t.Fatalf("weighted scheme diverged at point %d", i)
		}
	}
}

func TestDistributedDropsStragglers(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedAvg(3, 10, 5, 0.01)
	cfg.StragglerFraction = 0.9
	cfg.EvalEvery = 1
	dist, err := launch(t, fed, mdl, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := dist.Final().Participants; got != 1 {
		t.Fatalf("participants = %d, want 1 of 10 under 90%% drop", got)
	}
	if !strings.HasSuffix(dist.Label, "[fednet]") {
		t.Fatalf("label %q missing transport marker", dist.Label)
	}
}

func TestSingleWorkerHostsEverything(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(3, 5, 2, 0.01, 1)
	cfg.EvalEvery = 3
	sim, err := core.Run(mdl, fed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := launch(t, fed, mdl, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Final().TrainLoss != dist.Final().TrainLoss {
		t.Fatal("single-worker run diverged from simulator")
	}
}

// TestNewServerRejections: an invalid config or no devices is refused
// (the config options a server refuses are TestSupportMatrix's).
func TestNewServerRejections(t *testing.T) {
	_, mdl := testWorkload()
	cases := []ServerConfig{
		{Training: core.Config{}, ExpectDevices: 3},
		{Training: core.FedProx(2, 2, 1, 0.01, 0), ExpectDevices: 0},
	}
	for i, sc := range cases {
		if _, err := NewServer(mdl, sc); err == nil {
			t.Errorf("case %d: invalid server config accepted", i)
		}
	}
}

// rawUpdate encodes params with the raw codec, the form direct worker
// tests feed into train().
func rawUpdate(t *testing.T, params []float64) *comm.Update {
	t.Helper()
	c, err := comm.Spec{Name: "raw"}.ForDevice(comm.Downlink, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c.Encode(params, nil)
}

func TestWorkerRejectsUnknownDevice(t *testing.T) {
	fed, mdl := testWorkload()
	w := NewWorker(mdl, fed.Shards[:1], nil)
	reply := w.train(&core.Dispatch{Device: 999, Update: rawUpdate(t, make([]float64, mdl.NumParams()))})
	if reply.Err == "" {
		t.Fatal("unknown device accepted")
	}
}

func TestWorkerRejectsBadParamLength(t *testing.T) {
	fed, mdl := testWorkload()
	w := NewWorker(mdl, fed.Shards[:1], nil)
	reply := w.train(&core.Dispatch{Device: fed.Shards[0].ID, Update: rawUpdate(t, []float64{1, 2})})
	if reply.Err == "" {
		t.Fatal("bad parameter length accepted for train")
	}
	ev := w.eval(&core.EvalRequest{Update: rawUpdate(t, []float64{1})})
	if ev.Err == "" {
		t.Fatal("bad parameter length accepted for eval")
	}
}

func TestNewWorkerPanics(t *testing.T) {
	_, mdl := testWorkload()
	defer func() {
		if recover() == nil {
			t.Fatal("worker without shards did not panic")
		}
	}()
	NewWorker(mdl, nil, nil)
}
