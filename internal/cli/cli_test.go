package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedprox/internal/core"
	"fedprox/internal/obs"
)

// parse registers the groups on a throwaway FlagSet and parses args —
// the way every command consumes this package.
func parse(t *testing.T, register func(*flag.FlagSet), args ...string) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
}

func TestCodecApply(t *testing.T) {
	var c Codec
	parse(t, c.Register, "-codec", "qsgd", "-bits", "4", "-downlink-codec", "raw")
	var cfg core.Config
	if err := c.Apply(&cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Codec.Name != "qsgd" || cfg.Codec.Bits != 4 {
		t.Fatalf("uplink spec not applied: %+v", cfg.Codec)
	}
	if cfg.DownlinkCodec.Name != "raw" {
		t.Fatalf("downlink spec not applied: %+v", cfg.DownlinkCodec)
	}

	// Refining flags without -codec are the one cross-flag error, with
	// the same message on every command.
	var bad Codec
	parse(t, bad.Register, "-bits", "4")
	if err := bad.Apply(&core.Config{}); err == nil || !strings.Contains(err.Error(), "require -codec") {
		t.Fatalf("want 'require -codec' error, got %v", err)
	}

	// No codec selected: Apply is a no-op.
	var none Codec
	parse(t, none.Register)
	cfg = core.Config{}
	if err := none.Apply(&cfg); err != nil || cfg.Codec.Enabled() {
		t.Fatalf("empty group must be a no-op, got %+v, %v", cfg.Codec, err)
	}
}

func TestAsyncConfig(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		mode    core.AggregationMode
		wantErr string
	}{
		{name: "default-sync", args: nil, mode: core.SyncRounds},
		{name: "explicit-sync", args: []string{"-async", "sync"}, mode: core.SyncRounds},
		{name: "async", args: []string{"-async", "async", "-alpha", "0.5", "-max-in-flight", "8"}, mode: core.AsyncTotal},
		{name: "buffered", args: []string{"-async", "buffered", "-buffer-k", "3"}, mode: core.Buffered},
		{name: "knobs-without-mode", args: []string{"-alpha", "0.5"}, wantErr: "require -async"},
		{name: "buffer-k-on-total", args: []string{"-async", "async", "-buffer-k", "3"}, wantErr: "-async buffered"},
		{name: "unknown-mode", args: []string{"-async", "bogus"}, wantErr: "unknown -async mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var a Async
			parse(t, a.Register, tc.args...)
			got, err := a.Config()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Mode != tc.mode {
				t.Fatalf("mode = %v, want %v", got.Mode, tc.mode)
			}
		})
	}
}

func TestAsyncRegisterOverrides(t *testing.T) {
	// The fedbench spellings set the same fields, without a mode
	// selector — the experiments decide the mode.
	var a Async
	parse(t, a.RegisterOverrides, "-async-alpha", "0.25", "-async-staleness-exp", "-1", "-async-buffer-k", "4")
	if a.Alpha != 0.25 || a.StalenessExp != -1 || a.BufferK != 4 {
		t.Fatalf("override spellings did not land: %+v", a)
	}
	if a.Mode != "" {
		t.Fatalf("overrides must not select a mode, got %q", a.Mode)
	}
}

func TestTierValidate(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{name: "empty", args: nil},
		{name: "root", args: []string{"-tier", "root", "-fanout", "8"}},
		{name: "edge-with-latency", args: []string{"-tier", "edge", "-fanout", "4", "-tier-latency", "0.02"}},
		{name: "sim", args: []string{"-tier", "sim", "-fanout", "32"}},
		{name: "fanout-without-tier", args: []string{"-fanout", "8"}, wantErr: "require -tier"},
		{name: "latency-without-tier", args: []string{"-tier-latency", "0.5"}, wantErr: "require -tier"},
		{name: "tier-without-fanout", args: []string{"-tier", "root"}, wantErr: "requires -fanout >= 2"},
		{name: "fanout-one", args: []string{"-tier", "edge", "-fanout", "1"}, wantErr: "requires -fanout >= 2"},
		{name: "negative-latency", args: []string{"-tier", "edge", "-fanout", "4", "-tier-latency", "-1"}, wantErr: "non-negative"},
		{name: "unknown-role", args: []string{"-tier", "leaf", "-fanout", "4"}, wantErr: "unknown -tier role"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tr Tier
			parse(t, tr.Register, tc.args...)
			err := tr.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestTierServerRole(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		parent  string
		wantErr string
	}{
		{name: "flat", args: nil},
		{name: "root", args: []string{"-tier", "root", "-fanout", "8"}},
		{name: "edge", args: []string{"-tier", "edge", "-fanout", "4"}, parent: "localhost:7070"},
		{name: "edge-without-parent", args: []string{"-tier", "edge", "-fanout", "4"}, wantErr: "requires -parent"},
		{name: "parent-without-edge", args: nil, parent: "localhost:7070", wantErr: "requires -tier edge"},
		{name: "parent-on-root", args: []string{"-tier", "root", "-fanout", "8"}, parent: "localhost:7070", wantErr: "requires -tier edge"},
		{name: "sim-on-server", args: []string{"-tier", "sim", "-fanout", "8"}, wantErr: "fedbench override"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var tr Tier
			parse(t, tr.Register, tc.args...)
			err := tr.ServerRole(tc.parent)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestTierCohort(t *testing.T) {
	tr := Tier{Role: "root", FanOut: 8}
	if got, err := tr.Cohort(64); err != nil || got != 8 {
		t.Fatalf("Cohort(64) = %d, %v; want 8", got, err)
	}
	if _, err := tr.Cohort(60); err == nil || !strings.Contains(err.Error(), "must divide") {
		t.Fatalf("want divisibility error, got %v", err)
	}
}

func TestTierWorkerSlice(t *testing.T) {
	cases := []struct {
		name        string
		tier        Tier
		n, edges, i int
		lo, hi      int
		wantErr     string
	}{
		{name: "first-edge", tier: Tier{Role: "edge", FanOut: 4}, n: 30, edges: 2, i: 0, lo: 0, hi: 15},
		{name: "last-edge", tier: Tier{Role: "edge", FanOut: 4}, n: 30, edges: 2, i: 1, lo: 15, hi: 30},
		{name: "root-worker", tier: Tier{Role: "root", FanOut: 4}, n: 30, edges: 2, i: 0, wantErr: "only serve under an edge"},
		{name: "sim-worker", tier: Tier{Role: "sim", FanOut: 4}, n: 30, edges: 2, i: 0, wantErr: "only serve under an edge"},
		{name: "worker-latency", tier: Tier{Role: "edge", FanOut: 4, Latency: 0.1}, n: 30, edges: 2, i: 0, wantErr: "not workers"},
		{name: "index-out-of-range", tier: Tier{Role: "edge", FanOut: 4}, n: 30, edges: 2, i: 2, wantErr: "outside"},
		{name: "too-few-devices", tier: Tier{Role: "edge", FanOut: 4}, n: 1, edges: 2, i: 0, wantErr: "cannot cover"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lo, hi, err := tc.tier.WorkerSlice(tc.n, tc.edges, tc.i)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if lo != tc.lo || hi != tc.hi {
				t.Fatalf("slice [%d,%d), want [%d,%d)", lo, hi, tc.lo, tc.hi)
			}
		})
	}
}

func TestTierSimOverride(t *testing.T) {
	var none Tier
	if f, l, err := none.SimOverride(); err != nil || f != 0 || l != 0 {
		t.Fatalf("empty group: got %d, %g, %v", f, l, err)
	}
	sim := Tier{Role: "sim", FanOut: 16, Latency: 0.02}
	if f, l, err := sim.SimOverride(); err != nil || f != 16 || l != 0.02 {
		t.Fatalf("sim override: got %d, %g, %v", f, l, err)
	}
	root := Tier{Role: "root", FanOut: 8}
	if _, _, err := root.SimOverride(); err == nil || !strings.Contains(err.Error(), "fedserver role") {
		t.Fatalf("want fedserver-role error, got %v", err)
	}
}

func TestTraceOpen(t *testing.T) {
	// Empty path: nil sink, close is a working no-op.
	var empty Trace
	sink, closeFn, err := empty.Open()
	if err != nil || sink != nil {
		t.Fatalf("empty -trace: want nil sink, got %v, %v", sink, err)
	}
	if closeFn(&err); err != nil {
		t.Fatalf("no-op close errored: %v", err)
	}

	// Real path: events land in the file after close.
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	tr := Trace{Path: path}
	sink, closeFn, err = tr.Open()
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil {
		t.Fatal("want a sink for a real path")
	}
	sink.Emit(obs.NewEvent(obs.KindDispatch))
	// The close keeps a run's own error, and still flushes.
	err = errors.New("the run failed")
	if closeFn(&err); err == nil || err.Error() != "the run failed" {
		t.Fatalf("close replaced the run's error: %v", err)
	}
	if b, err := os.ReadFile(path); err != nil || !strings.HasPrefix(string(b), `{"kind":"dispatch"`) {
		t.Fatalf("trace %q, %v: want the event flushed", b, err)
	}
}

func TestDebugServeDisabled(t *testing.T) {
	var d Debug
	if reg := d.Serve("test", true, io.Discard); reg != nil {
		t.Fatal("no -debug-addr must not build a registry")
	}
}

// TestCommand: every command's one report maps an error to its status and
// its stderr line — nothing for success and -h, the message and 2 for a
// usage error (nothing more for a flag the flag package has printed), the
// message and 1 for anything else.
func TestCommand(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.Int("n", 0, "")
	for _, tc := range []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{Parse(fs, []string{"-h"}), 0, ""},
		{Parse(fs, []string{"-n", "x"}), 2, ""},
		{Parse(fs, []string{"-n", "3"}), 0, ""},
		{Usage(errors.New("-x is required")), 2, "cmd: -x is required\n"},
		{fmt.Errorf("reading: %w", Usage(errors.New("no file"))), 2, "cmd: reading: no file\n"},
		{errors.New("it broke"), 1, "cmd: it broke\n"},
	} {
		var stderr strings.Builder
		run := Command("cmd", func([]string, io.Writer, io.Writer) error { return tc.err })
		if code := run(nil, io.Discard, &stderr); code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("error %v: status %d, stderr %q; want %d, %q", tc.err, code, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// TestObserve: with neither flag there is no sink and the close is a
// no-op; with -trace an untimed event lands in the file stamped with
// wall-clock seconds.
func TestObserve(t *testing.T) {
	sink, closeFn, err := observe("test", &Trace{}, &Debug{}, io.Discard)
	if err != nil || sink != nil {
		t.Fatalf("no flags: sink %v, %v; want none", sink, err)
	}
	if closeFn(&err); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if sink, closeFn, err = observe("test", &Trace{Path: path}, &Debug{}, io.Discard); err != nil {
		t.Fatal(err)
	}
	e := obs.NewEvent(obs.KindDispatch)
	e.Time = math.NaN()
	sink.Emit(e)
	if closeFn(&err); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || !strings.Contains(string(b), `{"kind":"dispatch","t":`) {
		t.Fatalf("trace %q, %v: want one stamped dispatch", b, err)
	}

	if _, _, err := observe("test", &Trace{Path: filepath.Join(t.TempDir(), "no", "such", "dir")}, &Debug{}, io.Discard); err == nil {
		t.Fatal("an unwritable -trace opened")
	}
}
