// Package cli defines the flag groups the fedprox command-line tools
// share, each exactly once: the codec selection (-codec,
// -downlink-codec, -bits, -topk), the asynchronous-aggregation knobs
// (-async, -alpha, -staleness-exp, -buffer-k, -max-in-flight and the
// fedbench "-async-*" override spellings), the hierarchical-aggregation
// group (-tier, -fanout, -tier-latency), the virtual-time policy
// overrides (-vtime-deadline, -vtime-round-bytes), the -trace JSONL
// sink, and the -debug-addr metrics/pprof endpoint. It also holds the
// commands' one exit path (Parse, Usage and Command map a run's error
// to its message on stderr and the process status) and the two roles of a
// fednet deployment, Server and Worker: fedserver and fedworker run
// them, and so does a test that starts a whole deployment in one
// process.
//
// Before this package, cmd/fedbench and cmd/fedserver each re-declared
// the codec flags with their own help strings and their own "-bits
// requires -codec" checks, and the trace-file open/flush/close dance
// was pasted into three mains; the versions drifted one flag at a time.
// Here a command embeds the groups it serves, calls Register on its
// FlagSet, and gets identical semantics (and identical error messages)
// to every other command by construction.
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"fedprox/internal/comm"
	"fedprox/internal/core"
	"fedprox/internal/obs"
	"fedprox/internal/tensor"
	"fedprox/internal/tier"
)

// Codec is the model-update codec flag group: -codec, -downlink-codec,
// -bits, -topk.
type Codec struct {
	Name     string
	Downlink string
	Bits     int
	TopK     float64
}

// Register declares the group's flags on fs.
func (c *Codec) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Name, "codec", "", "model-update codec: "+strings.Join(comm.Names(), ", ")+" (empty = uncompressed)")
	fs.StringVar(&c.Downlink, "downlink-codec", "", "override -codec on the broadcast direction (e.g. raw under -codec topk)")
	fs.IntVar(&c.Bits, "bits", 0, "qsgd bit width (0 = comm default)")
	fs.Float64Var(&c.TopK, "topk", 0, "topk kept fraction (0 = comm default)")
}

// Validate reports the group's one cross-flag constraint: the refining
// flags are meaningless without a codec selected.
func (c *Codec) Validate() error {
	if c.Name == "" && (c.Downlink != "" || c.Bits != 0 || c.TopK != 0) {
		return fmt.Errorf("-downlink-codec, -bits, and -topk require -codec")
	}
	return nil
}

// Apply validates the group and writes the selected codec specs into
// cfg (a no-op when no codec is selected).
func (c *Codec) Apply(cfg *core.Config) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Name == "" {
		return nil
	}
	cfg.Codec = comm.Spec{Name: c.Name, Bits: c.Bits, TopK: c.TopK}
	if c.Downlink != "" {
		cfg.DownlinkCodec = comm.Spec{Name: c.Downlink, Bits: c.Bits, TopK: c.TopK}
	}
	return nil
}

// Precision is the arithmetic-width flag group: -precision.
type Precision struct {
	Name string
}

// Register declares the group's flag on fs.
func (p *Precision) Register(fs *flag.FlagSet) {
	fs.StringVar(&p.Name, "precision", "", "device hot-path arithmetic width: "+strings.Join(tensor.Precisions(), ", ")+" (empty = f64)")
}

// Apply parses the selected width into cfg. Config.Validate enforces the
// f32 composition rules (no privacy, no topk); the model/solver
// capability check happens at run construction.
func (p *Precision) Apply(cfg *core.Config) error {
	prec, err := tensor.ParsePrecision(p.Name)
	if err != nil {
		return err
	}
	cfg.Precision = prec
	return nil
}

// Async is the asynchronous-aggregation flag group. Register declares
// the full group (mode selector plus knobs) under the canonical names;
// RegisterOverrides declares the knob subset under the "-async-*"
// spellings cmd/fedbench uses to override experiment defaults, where
// the experiments — not a flag — choose the aggregation mode.
type Async struct {
	Mode         string
	Alpha        float64
	StalenessExp float64
	BufferK      int
	MaxInFlight  int
}

// Register declares -async, -alpha, -staleness-exp, -buffer-k, and
// -max-in-flight on fs.
func (a *Async) Register(fs *flag.FlagSet) {
	fs.StringVar(&a.Mode, "async", "", "aggregation discipline: empty/sync (lock-step rounds), async (fold replies on arrival), buffered (flush every -buffer-k replies)")
	fs.Float64Var(&a.Alpha, "alpha", 0, "async base mixing rate in (0,1] (0 = default)")
	fs.Float64Var(&a.StalenessExp, "staleness-exp", 0, "async staleness damping exponent p in alpha/(1+s)^p (0 = default, negative = no damping)")
	fs.IntVar(&a.BufferK, "buffer-k", 0, "buffered mode: replies per flush (0 = -clients)")
	fs.IntVar(&a.MaxInFlight, "max-in-flight", 0, "async modes: concurrently outstanding train requests (0 = -clients)")
}

// RegisterOverrides declares -async-alpha, -async-staleness-exp, and
// -async-buffer-k on fs — the knobs without the mode selector.
func (a *Async) RegisterOverrides(fs *flag.FlagSet) {
	fs.Float64Var(&a.Alpha, "async-alpha", 0, "ext-async/ext-vtime base mixing rate (0 = core default)")
	fs.Float64Var(&a.StalenessExp, "async-staleness-exp", 0, "ext-async/ext-vtime staleness damping exponent (0 = core default, negative = no damping)")
	fs.IntVar(&a.BufferK, "async-buffer-k", 0, "ext-async/ext-vtime buffered flush size (0 = clients per round)")
}

// Config resolves the mode selector into a core.AsyncConfig, enforcing
// the same cross-flag constraints everywhere: knobs require -async, and
// -buffer-k applies only to the buffered mode.
func (a *Async) Config() (core.AsyncConfig, error) {
	switch a.Mode {
	case "", "sync":
		if a.Alpha != 0 || a.StalenessExp != 0 || a.BufferK != 0 || a.MaxInFlight != 0 {
			return core.AsyncConfig{}, fmt.Errorf("-alpha, -staleness-exp, -buffer-k, and -max-in-flight require -async")
		}
		return core.AsyncConfig{}, nil
	case "async":
		if a.BufferK != 0 {
			return core.AsyncConfig{}, fmt.Errorf("-buffer-k applies only to -async buffered")
		}
		return core.AsyncConfig{Mode: core.AsyncTotal, Alpha: a.Alpha, StalenessExponent: a.StalenessExp, MaxInFlight: a.MaxInFlight}, nil
	case "buffered":
		return core.AsyncConfig{Mode: core.Buffered, Alpha: a.Alpha, StalenessExponent: a.StalenessExp, BufferK: a.BufferK, MaxInFlight: a.MaxInFlight}, nil
	default:
		return core.AsyncConfig{}, fmt.Errorf("unknown -async mode %q (sync, async, buffered)", a.Mode)
	}
}

// Tier is the hierarchical-aggregation flag group: -tier, -fanout,
// -tier-latency. The role names a process's place in an aggregation
// tree — fedserver is the tree's root or an edge aggregator, fedworker
// serves the device slice of one edge, and fedbench's "sim" role
// overrides the in-process ext-hier sweep — while -fanout and
// -tier-latency shape the tree identically everywhere, so a deployment
// and its simulation are described in the same vocabulary.
type Tier struct {
	Role    string
	FanOut  int
	Latency float64
}

// Register declares the group's flags on fs.
func (t *Tier) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Role, "tier", "", "hierarchical-aggregation role: root (accept edge folds), edge (fold children for a -parent), sim (fedbench: override the in-process sweep)")
	fs.IntVar(&t.FanOut, "fanout", 0, "children each aggregator contacts per window (>= 2, requires -tier)")
	fs.Float64Var(&t.Latency, "tier-latency", 0, "aggregator-leg latency in seconds (requires -tier): edges sleep it per parent exchange, fedbench prices it on the virtual backbone")
}

// Enabled reports whether a tier role was selected.
func (t *Tier) Enabled() bool { return t.Role != "" }

// Validate reports the group's cross-flag constraints: the shape flags
// are meaningless without a role, and every role needs a real fan-out.
func (t *Tier) Validate() error {
	switch t.Role {
	case "", "root", "edge", "sim":
	default:
		return fmt.Errorf("unknown -tier role %q (root, edge, sim)", t.Role)
	}
	if t.Role == "" && (t.FanOut != 0 || t.Latency != 0) {
		return fmt.Errorf("-fanout and -tier-latency require -tier")
	}
	if t.Role != "" && t.FanOut < 2 {
		return fmt.Errorf("-tier %s requires -fanout >= 2", t.Role)
	}
	if t.Latency < 0 {
		return fmt.Errorf("-tier-latency must be non-negative, got %g", t.Latency)
	}
	return nil
}

// ServerRole validates the group for fedserver, which additionally owns
// the -parent flag: an edge must have a parent to fold into, and a
// parent address without the edge role is a configuration mistake.
func (t *Tier) ServerRole(parent string) error {
	if err := t.Validate(); err != nil {
		return err
	}
	switch t.Role {
	case "sim":
		return fmt.Errorf("-tier sim is a fedbench override; fedserver is root or edge")
	case "edge":
		if parent == "" {
			return fmt.Errorf("-tier edge requires -parent")
		}
	default:
		if parent != "" {
			return fmt.Errorf("-parent requires -tier edge")
		}
	}
	return nil
}

// Cohort returns clients/FanOut — the number of edge aggregators in a
// one-tier tree, which is also the root's per-window cohort (the root
// contacts every edge).
func (t *Tier) Cohort(clients int) (int, error) {
	if clients <= 0 || clients%t.FanOut != 0 {
		return 0, fmt.Errorf("-fanout %d must divide -clients %d", t.FanOut, clients)
	}
	return clients / t.FanOut, nil
}

// WorkerSlice resolves which global device range [lo, hi) a fedworker
// hosts under -tier edge: the slice of edge `index` of `edges` over n
// devices. Workers are leaves — only the edge role applies, and the
// aggregator-leg latency is not theirs to emulate.
func (t *Tier) WorkerSlice(n, edges, index int) (lo, hi int, err error) {
	if err := t.Validate(); err != nil {
		return 0, 0, err
	}
	if t.Role != "edge" {
		return 0, 0, fmt.Errorf("-tier %s: a fedworker can only serve under an edge (-tier edge)", t.Role)
	}
	if t.Latency != 0 {
		return 0, 0, fmt.Errorf("-tier-latency applies to aggregator legs, not workers")
	}
	if edges <= 0 || index < 0 || index >= edges {
		return 0, 0, fmt.Errorf("edge index %d outside [0,%d)", index, edges)
	}
	if n < edges {
		return 0, 0, fmt.Errorf("%d devices cannot cover %d edges", n, edges)
	}
	lo, hi = tier.Partition(n, edges, index)
	return lo, hi, nil
}

// RootTier returns the core.CoordinatorOptions.Tier value of a
// fedserver in this role: 1 (the tree's root) under -tier root, 0
// (untiered) otherwise. Edges stamp their own depth via fednet.NewEdge.
func (t *Tier) RootTier() int {
	if t.Role == "root" {
		return 1
	}
	return 0
}

// SimOverride resolves the group for fedbench: the in-process commands
// take only the "sim" role, whose fan-out (and optional backbone
// latency) replace the ext-hier sweep's defaults. With no role selected
// it returns zeros.
func (t *Tier) SimOverride() (fanout int, latency float64, err error) {
	if err := t.Validate(); err != nil {
		return 0, 0, err
	}
	switch t.Role {
	case "":
		return 0, 0, nil
	case "sim":
		return t.FanOut, t.Latency, nil
	default:
		return 0, 0, fmt.Errorf("-tier %s is a fedserver role; fedbench takes -tier sim", t.Role)
	}
}

// VTime is the virtual-time straggler-policy override group:
// -vtime-deadline and -vtime-round-bytes.
type VTime struct {
	Deadline   float64
	RoundBytes int64
}

// Register declares the group's flags on fs.
func (v *VTime) Register(fs *flag.FlagSet) {
	fs.Float64Var(&v.Deadline, "vtime-deadline", 0, "ext-vtime sync-deadline policy in virtual seconds (0 = derive from the latency model)")
	fs.Int64Var(&v.RoundBytes, "vtime-round-bytes", 0, "ext-vtime sync-budget policy in wire bytes per round (0 = ~70% of a full round)")
}

// Trace is the -trace flag group: a buffered JSONL event sink.
type Trace struct {
	Path string
}

// Register declares -trace on fs.
func (t *Trace) Register(fs *flag.FlagSet) {
	fs.StringVar(&t.Path, "trace", "", "stream a JSONL event trace to this file (see internal/obs)")
}

// Open creates the trace file and returns its sink plus a close that
// flushes and closes the file and, unless *err already holds an error,
// stores the first write error in *err. A command defers the close, so
// a run that fails still leaves every event it emitted in the file. With
// no -trace, the sink is nil and close is a no-op.
func (t *Trace) Open() (obs.Sink, func(err *error), error) {
	if t.Path == "" {
		return nil, func(*error) {}, nil
	}
	f, err := os.Create(t.Path)
	if err != nil {
		return nil, nil, err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	j := obs.NewJSONL(w)
	return j, func(err *error) {
		first := j.Err()
		if ferr := w.Flush(); first == nil {
			first = ferr
		}
		if cerr := f.Close(); first == nil {
			first = cerr
		}
		if first != nil && *err == nil {
			*err = fmt.Errorf("trace: %w", first)
		}
	}, nil
}

// Debug is the -debug-addr flag group: the Prometheus /metrics plus
// /debug/pprof endpoint.
type Debug struct {
	Addr string
}

// Register declares -debug-addr on fs.
func (d *Debug) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.Addr, "debug-addr", "", "serve Prometheus /metrics and /debug/pprof on this address (e.g. localhost:6060)")
}

// Serve starts the debug endpoint in the background when -debug-addr
// was given and returns the registry sink to feed it (nil otherwise, and
// nil without metrics: the endpoint then serves pprof only). A listen
// failure is reported on stderr, prefixed by name.
func (d *Debug) Serve(name string, withMetrics bool, stderr io.Writer) *obs.Registry {
	if d.Addr == "" {
		return nil
	}
	var reg *obs.Registry
	if withMetrics {
		reg = obs.NewRegistry()
	}
	go func() {
		if err := http.ListenAndServe(d.Addr, obs.Debug(reg)); err != nil {
			fmt.Fprintf(stderr, "%s: debug server: %v\n", name, err)
		}
	}()
	return reg
}

// usageError is a mistake on the command line; a nil err is one the flag
// package has already printed, with the usage text.
type usageError struct{ err error }

func (u usageError) Error() string { return fmt.Sprint(u.err) }

// Usage marks err as a command-line mistake, which Command answers with
// status 2.
func Usage(err error) error { return usageError{err} }

// Parse parses args into fs, a ContinueOnError set writing to the
// command's stderr. A flag the set rejects comes back as a usage error
// whose message the flag package has already printed; -h is
// flag.ErrHelp.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		return usageError{}
	}
	return err
}

// Command returns a command's entry point: it calls run, writes run's
// error to stderr, prefixed by the command's name, and returns the process
// status — 0 for no error or -h, 2 for a usage error, 1 for any other
// failure.
func Command(name string, run func(args []string, stdout, stderr io.Writer) error) func(args []string, stdout, stderr io.Writer) int {
	return func(args []string, stdout, stderr io.Writer) int {
		err := run(args, stdout, stderr)
		var u usageError
		switch {
		case err == nil, errors.Is(err, flag.ErrHelp):
			return 0
		case !errors.As(err, &u):
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		case u.err != nil:
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
		}
		return 2
	}
}
