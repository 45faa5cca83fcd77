package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedprox/internal/experiments"
	"fedprox/internal/obs"
	"fedprox/internal/obs/tracefile"
)

// recorded holds each trace record has made, so the tests that read the
// same experiment's trace run it once.
var recorded = map[string][]byte{}

// record runs one experiment at the -fast preset and returns the JSONL
// trace `fedbench -exp id -fast -trace` would have written.
func record(t *testing.T, id string) []byte {
	t.Helper()
	if b, ok := recorded[id]; ok {
		return b
	}
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	opts := experiments.Fast()
	opts.Trace = sink
	if _, err := experiments.Run(id, opts); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	recorded[id] = buf.Bytes()
	return buf.Bytes()
}

// TestVTimeTraceSummarizesAndReplays: the virtual-time sweep's trace
// stays machine-readable — summary decodes every line of it — and
// replaying every recorded case under its recorded policy through a fresh
// sans-I/O coordinator reproduces the recorded event stream (fold
// schedule, dispositions, clock: everything but the eval metrics replay
// cannot recompute).
func TestVTimeTraceSummarizesAndReplays(t *testing.T) {
	trace := record(t, "ext-vtime")
	if err := tracefile.Summarize(io.Discard, bytes.NewReader(trace)); err != nil {
		t.Fatalf("summary: %v", err)
	}
	evs, err := tracefile.ReadAll(bytes.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := experiments.ReplayCases("ext-vtime", experiments.Fast())
	if err != nil {
		t.Fatal(err)
	}
	segments := tracefile.Runs(evs)
	if len(segments) != len(cases) {
		t.Fatalf("trace has %d run segments, ext-vtime runs %d cases", len(segments), len(cases))
	}
	var out strings.Builder
	if err := verifyReplay(&out, cases, segments); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "replay equivalence OK") {
		t.Errorf("replay verdict: %q", out.String())
	}
}

// TestTieredTraceSummary: a hierarchical run interleaves every tree node's
// events into one trace with tier stamps; summary accepts the per-tier
// round structure, rolls it up by tier and names the slow edge.
func TestTieredTraceSummary(t *testing.T) {
	var out strings.Builder
	if err := tracefile.Summarize(&out, bytes.NewReader(record(t, "ext-hier"))); err != nil {
		t.Fatalf("summary: %v", err)
	}
	for _, want := range []string{"per-tier rollup", "slow edge"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the tiered summary lacks %q", want)
		}
	}
}

// fedtrace runs the command and returns its status, stdout and stderr.
func fedtrace(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRun holds each subcommand, over a recorded ext-vtime trace on disk,
// to its exit status and output: 2 and the usage text for a call without
// a known subcommand or its trace files, 1 for a failure or a divergent
// diff.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	trace := record(t, "ext-vtime")
	path, changed, torn, twice := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "changed.jsonl"), filepath.Join(dir, "torn.jsonl"), filepath.Join(dir, "twice.jsonl")
	missing := filepath.Join(dir, "missing.jsonl")
	js := filepath.Join(dir, "replay.json")
	for name, b := range map[string][]byte{
		path:    trace,
		changed: bytes.Replace(trace, []byte(`"device":`), []byte(`"device":1`), 1),
		torn:    trace[:len(trace)-2],
		twice:   bytes.Repeat(trace, 2),
	} {
		if err := os.WriteFile(name, b, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	usage := "fedtrace: analyze and replay fedprox JSONL run traces\nsubcommands:\n"
	for _, tc := range []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{"summary", path}, 0, "== run 5: \"FedProx(mu=1) [buffered a=1 p=0.5 K=10] [vtime]\" (30 devices)", ""},
		{[]string{"diff", path, path}, 0, "traces identical", ""},
		{[]string{"diff", path, changed}, 1, "first divergent event", "fedtrace: the traces differ"},
		{[]string{"replay", "-fast", path}, 0, "replay equivalence OK", ""},
		{[]string{"replay", "-fast", "-vtime-deadline", "1.5", "-vtime-round-bytes", "100000", "-async-alpha", "0.5", "-async-staleness-exp", "1", "-async-buffer-k", "2", "-json", js, path}, 0, "deadline=1.5s", ""},
		{nil, 2, "", usage},
		{[]string{"-h"}, 2, "", usage},
		{[]string{"summary"}, 2, "", usage},
		{[]string{"diff", path}, 2, "", usage},
		{[]string{"replay", "-fast"}, 2, "", usage},
		{[]string{"replay", "-no-such-flag", path}, 2, "", "flag provided but not defined: -no-such-flag"},
		{[]string{"summary", missing}, 1, "", "fedtrace: open " + missing},
		{[]string{"summary", torn}, 1, "", "fedtrace: trace line "},
		{[]string{"diff", path, missing}, 1, "", "fedtrace: open " + missing},
		{[]string{"diff", torn, path}, 1, "", "fedtrace: " + torn + ": trace line "},
		{[]string{"replay", "-fast", missing}, 1, "", "fedtrace: open " + missing},
		{[]string{"replay", "-exp", "no-such-exp", path}, 1, "", `fedtrace: experiments: "no-such-exp" does not record`},
		{[]string{"replay", "-exp", "ext-async", "-fast", path}, 1, "", `fedtrace: experiments: "ext-async" does not record replayable virtual-time traces`},
		{[]string{"replay", "-fast", twice}, 1, "", "fedtrace: trace has 12 run segments but ext-vtime runs 6 cases"},
		{[]string{"replay", "-fast", "-vtime-deadline", "soon", path}, 1, "", `fedtrace: bad list element "soon"`},
		{[]string{"replay", "-fast", "-vtime-round-bytes", "many", path}, 1, "", `fedtrace: bad list element "many"`},
		{[]string{"replay", "-fast", "-json", filepath.Join(dir, "no", "such.json"), "-vtime-deadline", "1", path}, 1, "", "fedtrace: open "},
	} {
		code, stdout, stderr := fedtrace(tc.args...)
		if code != tc.code || !strings.Contains(stdout, tc.stdout) || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("fedtrace %s: exit %d, stdout %q, stderr %q; want exit %d, stdout containing %q, stderr containing %q",
				strings.Join(tc.args, " "), code, stdout, stderr, tc.code, tc.stdout, tc.stderr)
		}
	}
	var entries []experiments.BenchEntry
	b, err := os.ReadFile(js)
	if err == nil {
		err = json.Unmarshal(b, &entries)
	}
	if err != nil || len(entries) == 0 || entries[0].Experiment != "replay:ext-vtime" {
		t.Fatalf("replay -json wrote %+v, %v", entries, err)
	}
}
