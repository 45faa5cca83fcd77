// Command fedserver runs the federated coordinator of the fednet
// distributed runtime: it owns the global model and round schedule and
// never sees training data. All protocol decisions happen in the shared
// core.Coordinator; this process is its TCP driver.
//
// Workers and server must agree on -workload, -scale, and -data-seed so
// every process derives the same dataset partition and model shape; the
// server uses the dataset only to size the model and count devices.
//
// Under -async/-async buffered a worker that disconnects or times out is
// evicted and the run continues on the survivors; re-running the same
// fedworker command re-registers its devices and the coordinator
// re-admits them mid-run with freshly synchronized codec link state.
//
//	fedserver -addr :7070 -workload synthetic -rounds 50 -mu 1 &
//	fedworker -addr localhost:7070 -workload synthetic -workers 3 -index 0 &
//	fedworker -addr localhost:7070 -workload synthetic -workers 3 -index 1 &
//	fedworker -addr localhost:7070 -workload synthetic -workers 3 -index 2
//
// Hierarchical aggregation (-tier) turns the deployment into a process
// tree: the root's "devices" are edge aggregators, each edge owns a
// contiguous slice of the fleet and folds -fanout device replies into
// one upstream reply per round. Every process agrees on -clients and
// -fanout; the tree has clients/fanout edges:
//
//	fedserver -tier root -fanout 4 -clients 8 -addr :7070 &
//	fedserver -tier edge -fanout 4 -clients 8 -index 0 -parent localhost:7070 -addr :7071 &
//	fedserver -tier edge -fanout 4 -clients 8 -index 1 -parent localhost:7070 -addr :7072 &
//	fedworker -tier edge -fanout 4 -workers 2 -index 0 -addr localhost:7071 &
//	fedworker -tier edge -fanout 4 -workers 2 -index 1 -addr localhost:7072
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fedprox/internal/cli"
	"fedprox/internal/core"
	"fedprox/internal/experiments"
	"fedprox/internal/fednet"
	"fedprox/internal/obs"
	"fedprox/internal/tier"
)

func main() {
	var (
		addr       = flag.String("addr", ":7070", "listen address")
		workload   = flag.String("workload", "synthetic", "workload key: synthetic, synthetic-iid, mnist, femnist, shakespeare, sent140")
		scale      = flag.Float64("scale", 0.25, "dataset scale factor (must match workers)")
		rounds     = flag.Int("rounds", 50, "communication rounds")
		clients    = flag.Int("clients", 10, "devices selected per round (K)")
		epochs     = flag.Int("epochs", 20, "local epochs (E)")
		mu         = flag.Float64("mu", 1, "proximal coefficient")
		stragglers = flag.Float64("stragglers", 0.5, "straggler fraction per round")
		drop       = flag.Bool("drop", false, "drop stragglers (FedAvg) instead of aggregating partial work")
		evalEvery  = flag.Int("eval-every", 5, "evaluation interval in rounds")
		seed       = flag.Uint64("seed", 7, "environment seed (must match workers' -data-seed usage)")
		reqTimeout = flag.Duration("request-timeout", 0, "how long one request may stay unanswered, from its send, before its worker is declared dead: sync fails the run, async evicts (0 = wait forever)")
		parent     = flag.String("parent", "", "parent coordinator address (with -tier edge)")
		index      = flag.Int("index", 0, "this edge's index among the tree's edges (with -tier edge)")

		codecFlags cli.Codec
		precFlags  cli.Precision
		asyncFlags cli.Async
		tierFlags  cli.Tier
		traceFlags cli.Trace
		debugFlags cli.Debug
	)
	codecFlags.Register(flag.CommandLine)
	precFlags.Register(flag.CommandLine)
	asyncFlags.Register(flag.CommandLine)
	tierFlags.Register(flag.CommandLine)
	traceFlags.Register(flag.CommandLine)
	debugFlags.Register(flag.CommandLine)
	flag.Parse()
	if err := tierFlags.ServerRole(*parent); err != nil {
		fail(err)
	}

	opts := experiments.Full()
	opts.Scale = *scale
	w, err := opts.NamedWorkload(*workload)
	if err != nil {
		fail(err)
	}

	cfg := core.FedProx(*rounds, *clients, *epochs, w.LR, *mu)
	cfg.StragglerFraction = *stragglers
	cfg.EvalEvery = *evalEvery
	cfg.Seed = *seed
	if *drop {
		cfg.Straggler = core.DropStragglers
	}
	if err := codecFlags.Apply(&cfg); err != nil {
		fail(err)
	}
	if err := precFlags.Apply(&cfg); err != nil {
		fail(err)
	}
	if cfg.Async, err = asyncFlags.Config(); err != nil {
		fail(err)
	}
	if cfg.Async.Enabled() && *drop {
		// The asynchronous modes have no round deadline to drop anyone
		// at; partial straggler work is always folded (the FedProx
		// policy). Refuse rather than silently ignore the request.
		fail(fmt.Errorf("-drop (FedAvg straggler policy) requires synchronous rounds"))
	}

	// Observability: the coordinator's decision points stream to the
	// -trace JSONL file and aggregate into the -debug-addr /metrics
	// registry through one sink. Coordinator events are untimed on a real
	// transport (no virtual clock), so WallClock stamps them with seconds
	// since process start.
	var sinks []obs.Sink
	trace, closeTrace, err := traceFlags.Open()
	if err != nil {
		fail(err)
	}
	if trace != nil {
		sinks = append(sinks, trace)
	}
	if reg := debugFlags.Serve("fedserver", true); reg != nil {
		sinks = append(sinks, reg)
	}
	cfg.Trace = obs.WallClock(obs.Multi(sinks...))

	expect := w.Fed.NumDevices()
	switch tierFlags.Role {
	case "edge":
		// An edge aggregator: accept this edge's slice of the fleet as a
		// child deployment, and join the parent as one pseudo-device.
		edges, err := tierFlags.Cohort(*clients)
		if err != nil {
			fail(err)
		}
		if *index < 0 || *index >= edges {
			fail(fmt.Errorf("-index %d outside [0,%d)", *index, edges))
		}
		lo, hi := tier.Partition(w.Fed.NumDevices(), edges, *index)
		// Each edge runs its own selection streams, seeded as the simulator
		// seeds the same node: the root is node 0, so edge i is node i+1.
		cfg.Seed = tier.NodeSeed(*seed, *index+1)
		edge, err := fednet.NewEdge(w.Model, fednet.EdgeConfig{
			Training:       cfg,
			ExpectDevices:  hi - lo,
			DeviceID:       *index,
			FanOut:         tierFlags.FanOut,
			RequestTimeout: *reqTimeout,
			LegLatency:     time.Duration(tierFlags.Latency * float64(time.Second)),
		})
		if err != nil {
			fail(err)
		}
		fmt.Printf("fedserver: edge %d/%d on %s — devices [%d,%d) of %s, folding %d per window into %s\n",
			*index, edges, *addr, lo, hi, w.Fed.Name, tierFlags.FanOut, *parent)
		if err := edge.Run(*addr, *parent); err != nil {
			fail(err)
		}
		if err := closeTrace(); err != nil {
			fail(err)
		}
		read, written := edge.BytesOnWire()
		fmt.Printf("fedserver: edge %d done — child wire %dKB in / %dKB out\n", *index, read/1024, written/1024)
		return
	case "root":
		// The tree's root: its "devices" are the edge aggregators, one
		// pseudo-device each, and every edge participates every round.
		// Stragglers are an edge-local phenomenon — each edge applies
		// -stragglers to its own window.
		cohort, err := tierFlags.Cohort(*clients)
		if err != nil {
			fail(err)
		}
		cfg.ClientsPerRound = cohort
		cfg.StragglerFraction = 0
		expect = cohort
	}

	srv, err := fednet.NewServer(w.Model, fednet.ServerConfig{
		Training:       cfg,
		ExpectDevices:  expect,
		RequestTimeout: *reqTimeout,
		Tier:           tierFlags.RootTier(),
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("fedserver: %s on %s — waiting for %d devices\n",
		core.Label(cfg), *addr, expect)
	if cfg.Async.Enabled() {
		fmt.Println("fedserver: async mode — evicted workers may reconnect and will be re-admitted mid-run")
	}
	hist, err := srv.Run(*addr)
	if err != nil {
		fail(err)
	}
	if err := closeTrace(); err != nil {
		fail(err)
	}
	fmt.Print(hist)
	c := hist.Final().Cost
	read, written := srv.BytesOnWire()
	fmt.Printf("bytes: uplink %dKB, downlink %dKB (payload accounting); wire %dKB in / %dKB out (measured)\n",
		c.UplinkBytes/1024, c.DownlinkBytes/1024, read/1024, written/1024)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "fedserver: %v\n", err)
	os.Exit(1)
}
