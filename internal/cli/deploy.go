package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/experiments"
	"fedprox/internal/fednet"
	"fedprox/internal/obs"
	"fedprox/internal/privacy"
	"fedprox/internal/solver"
	"fedprox/internal/tier"
)

// Server is the fedserver command, the fednet coordinator or (-tier edge)
// an edge aggregator: it writes its progress and the trajectory to
// stdout, reports an error on stderr and returns the exit status (2 for a
// usage error, 1 for a failure). It prints the address it listens on
// before it waits for devices, so -addr 127.0.0.1:0 names the port it
// picked.
var Server = Command("fedserver", server)

func server(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fedserver", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":7070", "listen address (port 0 picks a free one, printed)")
		workload   = fs.String("workload", "synthetic", "workload key: synthetic, synthetic-iid, mnist, femnist, shakespeare, sent140")
		scale      = fs.Float64("scale", 0.25, "dataset scale factor (must match workers)")
		rounds     = fs.Int("rounds", 50, "communication rounds")
		clients    = fs.Int("clients", 10, "devices selected per round (K)")
		epochs     = fs.Int("epochs", 20, "local epochs (E)")
		mu         = fs.Float64("mu", 1, "proximal coefficient")
		stragglers = fs.Float64("stragglers", 0.5, "straggler fraction per round")
		drop       = fs.Bool("drop", false, "drop stragglers (FedAvg) instead of aggregating partial work")
		evalEvery  = fs.Int("eval-every", 5, "evaluation interval in rounds")
		seed       = fs.Uint64("seed", 7, "environment seed: device selection and straggler streams (the dataset comes from -workload and -scale)")
		reqTimeout = fs.Duration("request-timeout", 0, "how long one request may stay unanswered, from its send, before its worker is declared dead: sync fails the run, async evicts (0 = wait forever)")
		parent     = fs.String("parent", "", "parent coordinator address (with -tier edge)")
		index      = fs.Int("index", 0, "this edge's index among the tree's edges (with -tier edge)")

		codecFlags Codec
		precFlags  Precision
		asyncFlags Async
		tierFlags  Tier
		traceFlags Trace
		debugFlags Debug
	)
	codecFlags.Register(fs)
	precFlags.Register(fs)
	asyncFlags.Register(fs)
	tierFlags.Register(fs)
	traceFlags.Register(fs)
	debugFlags.Register(fs)
	if err := Parse(fs, args); err != nil {
		return err
	}
	if err := tierFlags.ServerRole(*parent); err != nil {
		return err
	}

	opts := experiments.Full()
	opts.Scale = *scale
	w, err := opts.NamedWorkload(*workload)
	if err != nil {
		return err
	}

	cfg := core.FedProx(*rounds, *clients, *epochs, w.LR, *mu)
	cfg.StragglerFraction = *stragglers
	cfg.EvalEvery = *evalEvery
	cfg.Seed = *seed
	if *drop {
		cfg.Straggler = core.DropStragglers
	}
	if err := codecFlags.Apply(&cfg); err != nil {
		return err
	}
	if err := precFlags.Apply(&cfg); err != nil {
		return err
	}
	if cfg.Async, err = asyncFlags.Config(); err != nil {
		return err
	}
	if cfg.Async.Enabled() && *drop {
		// The asynchronous modes have no round deadline to drop anyone
		// at; partial straggler work is always folded (the FedProx
		// policy). Refuse rather than silently ignore the request.
		return errors.New("-drop (FedAvg straggler policy) requires synchronous rounds")
	}

	// Observability: the coordinator's decision points stream to the
	// -trace JSONL file and aggregate into the -debug-addr /metrics
	// registry through one sink.
	sink, closeTrace, err := observe("fedserver", &traceFlags, &debugFlags, stderr)
	if err != nil {
		return err
	}
	defer closeTrace(&err)
	cfg.Trace = sink
	// RunWithListener closes ln; the deferred close is a refusal's.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	defer ln.Close()

	// The server hosts no device: it reads the fleet's size and name only.
	expect := w.Fleet.NumDevices()
	switch tierFlags.Role {
	case "edge":
		// An edge aggregator: accept this edge's slice of the fleet as a
		// child deployment, and join the parent as one pseudo-device.
		edges, err := tierFlags.Cohort(*clients)
		if err != nil {
			return err
		}
		if *index < 0 || *index >= edges {
			return fmt.Errorf("-index %d outside [0,%d)", *index, edges)
		}
		lo, hi := tier.Partition(expect, edges, *index)
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
			return err
		}
		fmt.Fprintf(stdout, "fedserver: edge %d/%d on %s — devices [%d,%d) of %s, folding %d per window into %s\n",
			*index, edges, ln.Addr(), lo, hi, w.Fleet.Header().Name, tierFlags.FanOut, *parent)
		if err := edge.RunWithListener(ln, *parent); err != nil {
			return err
		}
		read, written := edge.BytesOnWire()
		fmt.Fprintf(stdout, "fedserver: edge %d done — child wire %dKB in / %dKB out\n", *index, read/1024, written/1024)
		return nil
	case "root":
		// The tree's root: its "devices" are the edge aggregators, one
		// pseudo-device each, and every edge participates every round.
		// Stragglers are an edge-local phenomenon — each edge applies
		// -stragglers to its own window.
		cohort, err := tierFlags.Cohort(*clients)
		if err != nil {
			return err
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
		return err
	}
	fmt.Fprintf(stdout, "fedserver: %s on %s — waiting for %d devices\n",
		core.Label(cfg), ln.Addr(), expect)
	if cfg.Async.Enabled() {
		fmt.Fprintln(stdout, "fedserver: async mode — evicted workers may reconnect and will be re-admitted mid-run")
	}
	hist, err := srv.RunWithListener(ln)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, hist)
	c := hist.Final().Cost
	read, written := srv.BytesOnWire()
	fmt.Fprintf(stdout, "bytes: uplink %dKB, downlink %dKB (payload accounting); wire %dKB in / %dKB out (measured)\n",
		c.UplinkBytes/1024, c.DownlinkBytes/1024, read/1024, written/1024)
	return nil
}

// Worker is the fedworker command, one worker of a fednet deployment: it
// writes its progress to stdout, reports an error on stderr and returns
// the exit status (2 for a usage error, 1 for a failure).
var Worker = Command("fedworker", worker)

func worker(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("fedworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "localhost:7070", "coordinator address")
		workload = fs.String("workload", "synthetic", "workload key (must match the server)")
		scale    = fs.Float64("scale", 0.25, "dataset scale factor (must match the server)")
		workers  = fs.Int("workers", 1, "total number of workers in the deployment")
		index    = fs.Int("index", 0, "this worker's index in [0, workers)")
		local    = fs.String("solver", "sgd", "local solver: sgd, momentum, adagrad, adam, gd")
		codec    = fs.String("codec", "", "restrict the offered update codecs to this comma-separated list (default: all of "+strings.Join(comm.Names(), ", ")+")")
		privClip = fs.Float64("privacy-clip", 0, "update-level DP: L2 clip bound on each local update delta (0 disables clipping)")
		privStd  = fs.Float64("privacy-noise", 0, "update-level DP: Gaussian noise std added per coordinate of the delta (0 disables noise)")
		privSeed = fs.Uint64("privacy-seed", 0, "seed of the DP noise streams (with -privacy-noise)")

		tierFlags  Tier
		traceFlags Trace
		debugFlags Debug
	)
	tierFlags.Register(fs)
	traceFlags.Register(fs)
	debugFlags.Register(fs)
	if err := Parse(fs, args); err != nil {
		return err
	}
	if err := tierFlags.Validate(); err != nil {
		return err
	}
	if *index < 0 || *index >= *workers {
		return fmt.Errorf("index %d outside [0,%d)", *index, *workers)
	}

	opts := experiments.Full()
	opts.Scale = *scale
	w, err := opts.NamedWorkload(*workload)
	if err != nil {
		return err
	}
	shards, err := hosted(w.Fleet, &tierFlags, *workers, *index)
	if err != nil {
		return err
	}

	ls, ok := solvers[*local]
	if !ok {
		return fmt.Errorf("unknown solver %q", *local)
	}
	devOpts := core.DeviceOptions{Solver: ls}
	if *privClip != 0 || *privStd != 0 {
		// Update-level DP is device-side state: the mechanism clips and
		// noises each local solution before the uplink encode, so the
		// server never sees a raw update. Any value but zero builds it,
		// so Validate, not this guard, refuses a negative or NaN flag.
		devOpts.Privacy = &privacy.Mechanism{ClipNorm: *privClip, NoiseStd: *privStd, Seed: *privSeed}
		if err := devOpts.Privacy.Validate(); err != nil {
			return err
		}
	}
	var offer []string
	if *codec != "" {
		for _, name := range strings.Split(*codec, ",") {
			if name = strings.TrimSpace(name); name != "" {
				offer = append(offer, name)
			}
		}
		if len(offer) == 0 {
			// A nil Offer advertises every codec — the opposite of what a
			// non-empty (if malformed) -codec asked for.
			return fmt.Errorf("-codec %q names no codecs", *codec)
		}
	}
	// Observability: the device runtime's per-request events (and the
	// worker shell's solve spans) stream to the -trace JSONL file and
	// aggregate into the -debug-addr /metrics registry.
	sink, closeTrace, err := observe("fedworker", &traceFlags, &debugFlags, stderr)
	if err != nil {
		return err
	}
	defer closeTrace(&err)
	devOpts.Trace = sink
	fmt.Fprintf(stdout, "fedworker %d/%d: hosting %d devices of %s, solver %s\n",
		*index, *workers, len(shards), w.Fleet.Header().Name, ls.Name())
	wk := fednet.NewWorkerWithOptions(w.Model, shards, devOpts)
	wk.Offer = offer
	if err := wk.Run(*addr); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fedworker %d: shut down cleanly\n", *index)
	return nil
}

// hosted builds the devices a worker hosts, and no other. Under -tier
// edge, -workers counts the tree's edges and -index names the edge this
// worker serves: it hosts that edge's contiguous fleet slice under
// edge-local device IDs, matching the edge coordinator's 0-based view of
// its subtree. Otherwise worker index of workers hosts devices index,
// index+workers, index+2·workers, …
func hosted(fl data.Fleet, t *Tier, workers, index int) ([]*data.Shard, error) {
	var devices []int
	lo := 0 // the global ID of local device 0
	if t.Enabled() {
		var hi int
		var err error
		if lo, hi, err = t.WorkerSlice(fl.NumDevices(), workers, index); err != nil {
			return nil, err
		}
		for g := lo; g < hi; g++ {
			devices = append(devices, g)
		}
	} else {
		for k := index; k < fl.NumDevices(); k += workers {
			devices = append(devices, k)
		}
	}
	shards := data.Shards(fl, devices)
	for _, s := range shards {
		s.ID -= lo
	}
	return shards, nil
}

// solvers are -solver's choices.
var solvers = map[string]solver.LocalSolver{
	"sgd":      solver.SGDSolver{},
	"momentum": solver.MomentumSolver{Beta: 0.9},
	"adagrad":  solver.AdagradSolver{},
	"adam":     solver.AdamSolver{},
	"gd":       solver.GDSolver{StepsPerEpoch: 1},
}

// observe opens -trace and starts -debug-addr, and returns the one sink a
// deployment role feeds, which streams to the first and aggregates into
// the second's /metrics, plus the trace's close (Trace.Open). Events on a
// real transport are untimed, so the sink stamps them with wall-clock
// seconds since process start.
func observe(name string, t *Trace, d *Debug, stderr io.Writer) (obs.Sink, func(*error), error) {
	trace, closeTrace, err := t.Open()
	if err != nil {
		return nil, nil, err
	}
	var metrics obs.Sink
	if reg := d.Serve(name, true, stderr); reg != nil {
		metrics = reg
	}
	return obs.WallClock(obs.Multi(trace, metrics)), closeTrace, nil
}
