package fednet

import (
	"math"
	"net"
	"strings"
	"sync"
	"testing"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/model/linear"
	"fedprox/internal/solver"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
)

// launchTree deploys cfg as a two-tier process tree over loopback TCP: a
// root coordinator, edges = clients/fanOut edge aggregators each owning a
// contiguous slice of the fleet, and one worker per edge hosting that
// slice under edge-local device IDs. Everything runs in-process on real
// sockets — the exact topology `fedserver -tier root` + `fedserver
// -tier edge` + `fedworker -tier edge` builds across machines, the root
// contacting every edge every round with no stragglers of its own and
// edge i seeded nodeSeed(i).
func launchTree(t *testing.T, fed *data.Federated, mdl *linear.Model, cfg core.Config, fanOut int, nodeSeed func(edge int) uint64) (*core.History, error) {
	t.Helper()
	edges := cfg.ClientsPerRound / fanOut
	rootCfg := cfg
	rootCfg.ClientsPerRound = edges
	rootCfg.StragglerFraction = 0
	srv, err := NewServer(mdl, ServerConfig{Training: rootCfg, ExpectDevices: edges})
	if err != nil {
		return nil, err
	}
	rootLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	edgeErrs := make([]error, edges)
	workerErrs := make([]error, edges)
	for i := 0; i < edges; i++ {
		lo, hi := tier.Partition(fed.NumDevices(), edges, i)
		edgeCfg := cfg
		edgeCfg.Seed = nodeSeed(i)
		edge, err := NewEdge(mdl, EdgeConfig{
			Training:      edgeCfg,
			ExpectDevices: hi - lo,
			DeviceID:      i,
			FanOut:        fanOut,
		})
		if err != nil {
			return nil, err
		}
		edgeLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		// The worker hosts the edge's fleet slice under edge-local IDs,
		// as `fedworker -tier edge` does.
		var shards []*data.Shard
		for g := lo; g < hi; g++ {
			s := *fed.Shards[g]
			s.ID = g - lo
			shards = append(shards, &s)
		}
		w := NewWorker(mdl, shards, nil)
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			edgeErrs[i] = edge.RunWithListener(edgeLn, rootLn.Addr().String())
		}(i)
		go func(i int, addr string) {
			defer wg.Done()
			workerErrs[i] = w.Run(addr)
		}(i, edgeLn.Addr().String())
	}
	hist, runErr := srv.RunWithListener(rootLn)
	wg.Wait()
	if runErr != nil {
		return nil, runErr
	}
	for i := 0; i < edges; i++ {
		if edgeErrs[i] != nil {
			t.Fatalf("edge %d: %v", i, edgeErrs[i])
		}
		if workerErrs[i] != nil {
			t.Fatalf("worker %d: %v", i, workerErrs[i])
		}
	}
	return hist, nil
}

// simulatorSeeds is the derivation core.RunTiered and `fedserver -tier
// edge` share: the root is node 0 of the depth-1 tree, so edge i is node
// i+1.
func simulatorSeeds(seed uint64) func(int) uint64 {
	return func(edge int) uint64 { return tier.NodeSeed(seed, edge+1) }
}

// TestTieredProcessTree is the fednet face of the tentpole: a root and
// two edge aggregators train a real fleet over sockets, the root only
// ever sees edges=2 pseudo-device replies per round, and the distributed
// evaluation still reports the exact global weighted loss.
func TestTieredProcessTree(t *testing.T) {
	fed, mdl := testWorkload()
	const fanOut = 4
	cfg := core.FedProx(6, 8, 3, 0.01, 1) // 8/4 = 2 edges
	cfg.EvalEvery = 2
	cfg.Seed = 21

	hist, err := launchTree(t, fed, mdl, cfg, fanOut, simulatorSeeds(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(hist.Label, "[fednet]") {
		t.Fatalf("label %q missing transport marker", hist.Label)
	}
	first, fin := hist.Points[0], hist.Final()
	if math.IsNaN(first.TrainLoss) || math.IsNaN(fin.TrainLoss) {
		t.Fatalf("global loss not measured: first %v, final %v", first.TrainLoss, fin.TrainLoss)
	}
	if fin.TrainLoss >= first.TrainLoss {
		t.Fatalf("no progress through the tree: loss %v -> %v", first.TrainLoss, fin.TrainLoss)
	}
	if fin.Participants != 2 {
		t.Fatalf("root saw %d participants per round, want 2 edges", fin.Participants)
	}
	// Root ingress is 2 edge replies per round — a quarter of the 8
	// device replies a flat run uploads.
	paramBytes := int64(mdl.NumParams() * 8)
	if want := int64(6*2) * paramBytes; fin.Cost.UplinkBytes != want {
		t.Fatalf("root ingress %d bytes, want %d (2 edge replies x 6 rounds)", fin.Cost.UplinkBytes, want)
	}
}

// TestTieredProcessTreeCodec runs the tree with qsgd on both hops: the
// parent-edge links and the edge-worker links each carry their own codec
// streams, and the deployment still trains.
func TestTieredProcessTreeCodec(t *testing.T) {
	fed, mdl := testWorkload()
	const fanOut = 4
	cfg := core.FedProx(4, 8, 3, 0.01, 1)
	cfg.EvalEvery = 2
	cfg.Seed = 33
	cfg.Codec = comm.Spec{Name: "qsgd", Bits: 8}

	hist, err := launchTree(t, fed, mdl, cfg, fanOut, simulatorSeeds(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	first, fin := hist.Points[0], hist.Final()
	if math.IsNaN(fin.TrainLoss) || fin.TrainLoss >= first.TrainLoss {
		t.Fatalf("qsgd tree did not train: loss %v -> %v", first.TrainLoss, fin.TrainLoss)
	}
	raw := int64(4*2) * int64(mdl.NumParams()*8)
	if fin.Cost.UplinkBytes <= 0 || fin.Cost.UplinkBytes >= raw {
		t.Fatalf("root ingress %d not compressed below raw %d", fin.Cost.UplinkBytes, raw)
	}
}

// TestTieredProcessTreeMatchesRunTiered is cross-executor parity for the
// tier: a process tree and core.RunTiered run the same core.Edge, one
// over sockets and one over function calls, so under the simulator's node
// seeds they produce the same trajectory — with and without stragglers at
// the leaves, on a raw wire and on a chained deterministic codec.
func TestTieredProcessTreeMatchesRunTiered(t *testing.T) {
	fed, mdl := testWorkload()
	const fanOut = 4
	topo := tier.Topology{FanOut: fanOut, Depth: 1}
	for _, codec := range []comm.Spec{{}, {Name: "delta"}} {
		for _, stragglers := range []float64{0, 0.5} {
			cfg := core.FedProx(6, 8, 3, 0.01, 1)
			cfg.EvalEvery = 2
			cfg.Seed = 77
			cfg.Codec = codec
			cfg.StragglerFraction = stragglers
			sim, err := core.RunTiered(mdl, fed.Fleet(), cfg, topo)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := launchTree(t, fed, mdl, cfg, fanOut, simulatorSeeds(cfg.Seed))
			if err != nil {
				t.Fatal(err)
			}
			if len(tree.Points) != len(sim.Points) {
				t.Fatalf("codec %q stragglers %g: tree recorded %d points, simulator %d", codec.Name, stragglers, len(tree.Points), len(sim.Points))
			}
			for i, want := range sim.Points {
				got := tree.Points[i]
				if got.Round != want.Round || got.TestAcc != want.TestAcc || got.Participants != want.Participants ||
					got.Cost.UplinkBytes != want.Cost.UplinkBytes || got.Cost.DownlinkBytes != want.Cost.DownlinkBytes ||
					got.Cost.DeviceEpochs != want.Cost.DeviceEpochs {
					t.Errorf("codec %q stragglers %g point %d: tree %+v, simulator %+v", codec.Name, stragglers, i, got, want)
				}
				// Not 0: the same per-device losses are summed, but an edge
				// pre-folds its subtree's into one row before the root adds
				// the edges', where the simulator's root sums the fleet in
				// one pass — the additions associate differently.
				if d := int64(math.Float64bits(got.TrainLoss) - math.Float64bits(want.TrainLoss)); d < -2 || d > 2 {
					t.Errorf("codec %q stragglers %g point %d: tree loss %v, simulator %v: more than 2 ulp apart", codec.Name, stragglers, i, got.TrainLoss, want.TrainLoss)
				}
			}
		}
	}
}

// TestTieredProcessTreeQSGD pins what holds between the two tiers under a
// stochastic codec today: both train, and the root's ingress is equal
// byte for byte. The trajectories are not bit-equal, for two reasons: in
// process the leaves key their uplink rounding streams by global device id
// on the one fleet Device where a tree's workers key them by edge-local
// id, and a tree re-quantises the evaluation broadcast at the edge hop.
func TestTieredProcessTreeQSGD(t *testing.T) {
	fed, mdl := testWorkload()
	const fanOut = 4
	cfg := core.FedProx(6, 8, 3, 0.01, 1)
	cfg.EvalEvery = 2
	cfg.Seed = 77
	cfg.Codec = comm.Spec{Name: "qsgd", Bits: 8}
	sim, err := core.RunTiered(mdl, fed.Fleet(), cfg, tier.Topology{FanOut: fanOut, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := launchTree(t, fed, mdl, cfg, fanOut, simulatorSeeds(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range []*core.History{sim, tree} {
		if first, fin := h.Points[0].TrainLoss, h.Final().TrainLoss; math.IsNaN(fin) || fin >= first {
			t.Errorf("%s did not train: loss %v -> %v", h.Label, first, fin)
		}
	}
	if got, want := tree.Final().Cost.UplinkBytes, sim.Final().Cost.UplinkBytes; got != want {
		t.Errorf("root ingress: tree %d bytes, simulator %d", got, want)
	}
}

// TestTieredProcessTreeRefusesF32Root: an edge hands its float64 fold
// upstream as it is, so a root whose links would narrow it is refused at
// registration, by name, rather than left to disagree with RunTiered.
func TestTieredProcessTreeRefusesF32Root(t *testing.T) {
	fed, mdl := testWorkload()
	cfg := core.FedProx(2, 8, 1, 0.01, 1)
	cfg.Precision = tensor.F32
	_, err := launchTree(t, fed, mdl, cfg, 4, simulatorSeeds(cfg.Seed))
	if err == nil || !strings.Contains(err.Error(), `requires precision "f32"`) {
		t.Fatalf("f32 root over edges: %v, want the precision refusal", err)
	}
}

// TestEdgeEvalRequestMidWindow sends an edge an EvalRequest while its
// window is still in flight, as an asynchronous root's milestone
// evaluation can: the Worker loop answers evaluations inline beside the
// goroutine running the window, and both need the one child-facing
// backend. core.Edge serialises them — run under -race, which is what
// fails if it stops — so both are answered, neither with the other's
// replies.
func TestEdgeEvalRequestMidWindow(t *testing.T) {
	fed, mdl := testWorkload()
	edge, err := NewEdge(mdl, EdgeConfig{Training: core.FedProx(2, 4, 1, 0.01, 1), ExpectDevices: fed.NumDevices(), DeviceID: 5, FanOut: 4})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The children's first solve holds the window open until released.
	entered, release := make(chan struct{}), make(chan struct{})
	held := &hookedSolver{inner: solver.SGDSolver{}, onFirst: func() { close(entered); <-release }}
	rootSide, edgeSide := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := edge.run(ln, func() (*conn, error) { return newConn(edgeSide), nil }); err != nil {
			t.Errorf("edge: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := NewWorker(mdl, fed.Shards, held).Run(ln.Addr().String()); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()

	// The test is the root.
	root := newConn(rootSide)
	defer root.close()
	send := func(e Envelope) {
		t.Helper()
		if err := root.send(e); err != nil {
			t.Fatal(err)
		}
	}
	hello, err := root.recv()
	if err != nil || hello.Hello == nil || len(hello.Hello.Devices) != 1 || hello.Hello.Devices[0].ID != 5 {
		t.Fatalf("edge hello %+v, %v: want pseudo-device 5", hello, err)
	}
	raw := comm.Spec{Name: "raw"}.WithDefaults()
	send(Envelope{Welcome: &Welcome{Downlink: raw, Uplink: raw}})
	w0 := make([]float64, mdl.NumParams())
	down, _ := raw.ForDevice(comm.Downlink, 5)
	send(Envelope{TrainRequest: &core.Dispatch{Device: 5, Update: down.Encode(w0, nil), Epochs: 1, Mu: 1, LearningRate: 0.01, BatchSize: 10}})
	<-entered
	evalLink, _ := comm.NewEvalLink(raw)
	u, _, _ := evalLink.Broadcast(w0)
	send(Envelope{EvalRequest: &core.EvalRequest{Seq: 1, Update: u}}) // returns once the edge has read it
	close(release)
	var trained, evaluated bool
	for i := 0; i < 2; i++ {
		env, err := root.recv()
		switch {
		case err != nil:
			t.Fatal(err)
		case env.TrainReply != nil && env.TrainReply.Err == "" && env.TrainReply.Device == 5:
			trained = true
		case env.EvalReply != nil && env.EvalReply.Err == "" && len(env.EvalReply.Devices) == 1 && env.EvalReply.Devices[0].Device == 5:
			evaluated = env.EvalReply.Devices[0].TrainN == hello.Hello.Devices[0].TrainSize
		default:
			t.Fatalf("edge answered %+v", env)
		}
	}
	if !trained || !evaluated {
		t.Fatalf("window answered %v, evaluation over the whole subtree answered %v", trained, evaluated)
	}
	send(Envelope{Shutdown: &Shutdown{}})
	wg.Wait()
}

// TestNewEdgeRejections pins the edge's topology guard rails (the
// config options an edge refuses are TestSupportMatrix's).
func TestNewEdgeRejections(t *testing.T) {
	_, mdl := testWorkload()
	good := core.FedProx(2, 4, 1, 0.01, 0)
	cases := []struct {
		name string
		cfg  EdgeConfig
		want string
	}{
		{"fanout", EdgeConfig{Training: good, ExpectDevices: 8, FanOut: 1}, "FanOut"},
	}
	for _, tc := range cases {
		if _, err := NewEdge(mdl, tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: want error containing %q, got %v", tc.name, tc.want, err)
		}
	}
}
