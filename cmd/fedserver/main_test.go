package main

import (
	"bytes"
	"io"
	"net"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fedprox/internal/cli"
	"fedprox/internal/core"
	"fedprox/internal/data"
	"fedprox/internal/experiments"
	"fedprox/internal/tier"
)

// proc is one command running in this process: its stdout and stderr
// grow as it writes them, and listening and wait block on what it prints
// and on its exit.
type proc struct {
	mu       sync.Mutex
	cond     sync.Cond
	out, err bytes.Buffer
	exited   bool
	code     int
}

// procWriter is one of a proc's output streams.
type procWriter struct {
	p   *proc
	buf *bytes.Buffer
}

func (w procWriter) Write(b []byte) (int, error) {
	w.p.mu.Lock()
	defer w.p.mu.Unlock()
	w.buf.Write(b)
	w.p.cond.Broadcast()
	return len(b), nil
}

// start runs cmd on args in a goroutine.
func start(cmd func(args []string, stdout, stderr io.Writer) int, args ...string) *proc {
	p := &proc{}
	p.cond.L = &p.mu
	go func() {
		code := cmd(args, procWriter{p, &p.out}, procWriter{p, &p.err})
		p.mu.Lock()
		p.exited, p.code = true, code
		p.cond.Broadcast()
		p.mu.Unlock()
	}()
	return p
}

// listening waits until p prints the address it listens on, and returns
// it; it fails the test if p exits first.
func (p *proc) listening(t *testing.T) string {
	t.Helper()
	on := regexp.MustCompile(` on (\S+) — `)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if m := on.FindSubmatch(p.out.Bytes()); m != nil {
			return string(m[1])
		}
		if p.exited {
			t.Fatalf("exited %d before listening: %s%s", p.code, p.out.String(), p.err.String())
		}
		p.cond.Wait()
	}
}

// wait waits for p to exit and returns its status and stdout; a status
// other than 0 fails the test.
func (p *proc) wait(t *testing.T) string {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	for !p.exited {
		p.cond.Wait()
	}
	if p.code != 0 {
		t.Fatalf("exit %d: %s", p.code, p.err.String())
	}
	return p.out.String()
}

// workload is every process's dataset flags, and the same workload in
// process.
var workload = []string{"-workload", "synthetic", "-scale", "0.12"}

func simWorkload(t *testing.T) experiments.Workload {
	t.Helper()
	opts := experiments.Full()
	opts.Scale = 0.12
	w, err := opts.NamedWorkload("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// table is a printed History without its label line.
func table(s string) string { return s[strings.Index(s, "\n")+1:] }

// TestDeploymentMatchesSimulator: fedserver and two fedworkers, each run
// as its binary runs it, on a loopback port the server picks and prints,
// print core.Run's History at the same workload, config and seed.
func TestDeploymentMatchesSimulator(t *testing.T) {
	srv := start(run, slices.Concat(workload, []string{"-addr", "127.0.0.1:0", "-rounds", "6", "-clients", "6", "-epochs", "3", "-eval-every", "3"})...)
	addr := srv.listening(t)
	var workers []*proc
	for i := range 2 {
		workers = append(workers, start(cli.Worker, slices.Concat(workload, []string{"-addr", addr, "-workers", "2", "-index", strconv.Itoa(i)})...))
	}
	out := srv.wait(t)
	for i, w := range workers {
		if got := w.wait(t); !strings.Contains(got, "shut down cleanly") {
			t.Errorf("worker %d printed %q", i, got)
		}
	}

	w := simWorkload(t)
	cfg := core.FedProx(6, 6, 3, w.LR, 1)
	cfg.StragglerFraction, cfg.EvalEvery, cfg.Seed = 0.5, 3, 7
	sim, err := core.Run(w.Model, data.Generate(w.Fleet), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Label + " [fednet]\n" + table(sim.String()) + "bytes: "; !strings.Contains(out, want) {
		t.Fatalf("fedserver printed\n%s\nwant the simulator's table\n%s", out, want)
	}
}

// TestTieredDeploymentMatchesRunTiered: a -tier root fedserver, two -tier
// edge fedservers and a fedworker under each print core.RunTiered's
// History for the same config and seed, edge -index i seeded as node i+1
// of the simulated tree. The loss column's four decimals hide the ≤ 2 ulp
// an edge's pre-folded loss may differ by (TestTieredProcessTreeMatchesRunTiered).
func TestTieredDeploymentMatchesRunTiered(t *testing.T) {
	server := slices.Concat(workload, []string{"-fanout", "4", "-clients", "8", "-rounds", "6", "-epochs", "3", "-eval-every", "2", "-addr", "127.0.0.1:0"})
	root := start(run, slices.Concat(server, []string{"-tier", "root"})...)
	rootAddr := root.listening(t)
	var rest []*proc
	for i := range 2 {
		index := strconv.Itoa(i)
		edge := start(run, slices.Concat(server, []string{"-tier", "edge", "-index", index, "-parent", rootAddr})...)
		worker := start(cli.Worker, slices.Concat(workload, []string{"-tier", "edge", "-fanout", "4", "-workers", "2", "-index", index, "-addr", edge.listening(t)})...)
		rest = append(rest, edge, worker)
	}
	out := root.wait(t)
	for _, p := range rest {
		p.wait(t)
	}

	w := simWorkload(t)
	cfg := core.FedProx(6, 8, 3, w.LR, 1)
	cfg.StragglerFraction, cfg.EvalEvery, cfg.Seed = 0.5, 2, 7
	sim, err := core.RunTiered(w.Model, w.Fleet, cfg, tier.Topology{FanOut: 4, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := table(sim.String()) + "bytes: "; !strings.Contains(out, want) {
		t.Fatalf("the root printed\n%s\nwant RunTiered's table\n%s", out, want)
	}
}

// TestRefusals holds each way a fedserver command line goes wrong to its
// exit status and message: 2 for a flag the set rejects, 1 for the rest.
func TestRefusals(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	edge := func(more ...string) []string {
		return append([]string{"-tier", "edge", "-fanout", "4", "-clients", "8", "-parent", "127.0.0.1:1"}, more...)
	}
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{[]string{"-rounds", "many"}, 2, `invalid value "many" for flag -rounds`},
		{[]string{"-h"}, 0, "Usage of fedserver"},
		{[]string{"-drop", "-async", "async"}, 1, "fedserver: -drop (FedAvg straggler policy) requires synchronous rounds"},
		{[]string{"-async", "eventually"}, 1, `fedserver: unknown -async mode "eventually"`},
		{[]string{"-alpha", "0.5"}, 1, "require -async"},
		{[]string{"-bits", "4"}, 1, "fedserver: -downlink-codec, -bits, and -topk require -codec"},
		{[]string{"-precision", "f16"}, 1, `fedserver: tensor: unknown precision "f16"`},
		{[]string{"-workload", "no-such-workload"}, 1, `fedserver: experiments: unknown workload "no-such-workload"`},
		{[]string{"-tier", "edge", "-fanout", "4"}, 1, "fedserver: -tier edge requires -parent"},
		{[]string{"-parent", "127.0.0.1:1"}, 1, "fedserver: -parent requires -tier edge"},
		{[]string{"-tier", "sim", "-fanout", "4"}, 1, "fedserver: -tier sim is a fedbench override"},
		{[]string{"-tier", "root", "-fanout", "3", "-clients", "8"}, 1, "fedserver: -fanout 3 must divide -clients 8"},
		{edge("-index", "2"), 1, "fedserver: -index 2 outside [0,2)"},
		{edge("-addr", taken.Addr().String()), 1, "address already in use"},
		{[]string{"-addr", taken.Addr().String()}, 1, "address already in use"},
		{[]string{"-trace", missing}, 1, "fedserver: open " + missing},
		{[]string{"-codec", "topk", "-precision", "f32"}, 1, "fedserver: comm: topk does not support f32 payloads"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(slices.Concat(tc.args, []string{"-scale", "0.05"}), &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("fedserver %s: exit %d, stderr %q; want exit %d, stderr containing %q", strings.Join(tc.args, " "), code, stderr.String(), tc.code, tc.stderr)
		}
	}
}
