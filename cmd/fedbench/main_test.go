package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fedprox/internal/experiments"
	"fedprox/internal/obs"
	"fedprox/internal/obs/tracefile"
)

// small is an experiment at a size that runs in well under a second and
// still writes more than the trace's 64 KiB buffer.
var small = []string{"-exp", "ext-partialwork", "-fast", "-rounds", "4", "-scale", "0.08"}

// fedbench runs the command and returns its status, stdout and stderr.
func fedbench(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestRefusals holds each way a command line goes wrong to its exit
// status and message: 2 for a usage error, 1 for a failure.
func TestRefusals(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "fedbench: -exp is required (try -list)"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined: -no-such-flag"},
		{[]string{"-exp", "table1", "-bits", "4"}, 2, "fedbench: -downlink-codec, -bits, and -topk require -codec"},
		{[]string{"-exp", "table1", "-tier", "root", "-fanout", "4"}, 2, "fedbench: -tier root is a fedserver role; fedbench takes -tier sim"},
		{[]string{"-exp", "no-such-exp", "-fast"}, 1, `fedbench: no-such-exp: experiments: unknown experiment "no-such-exp"`},
		{[]string{"-exp", "table1", "-trace", missing}, 1, "fedbench: open " + missing},
		{[]string{"-exp", "table1", "-csv", missing}, 1, "fedbench: open " + missing},
		{[]string{"-h"}, 0, "Usage of fedbench"},
	} {
		code, _, stderr := fedbench(tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("fedbench %s: exit %d, stderr %q; want exit %d, stderr containing %q", strings.Join(tc.args, " "), code, stderr, tc.code, tc.stderr)
		}
	}
}

func TestList(t *testing.T) {
	code, stdout, _ := fedbench("-list")
	if code != 0 || !strings.HasPrefix(stdout, "available experiments:\n") || !strings.Contains(stdout, "  ext-partialwork ") {
		t.Fatalf("fedbench -list: exit %d, stdout:\n%s", code, stdout)
	}
}

// TestFailedRunKeepsItsTrace: a run that fails after an experiment has
// traced leaves every event it emitted in the -trace file, the last line
// whole, exactly as the same run without the failing experiment does.
func TestFailedRunKeepsItsTrace(t *testing.T) {
	dir := t.TempDir()
	ok, failed := filepath.Join(dir, "ok.jsonl"), filepath.Join(dir, "failed.jsonl")
	if code, _, stderr := fedbench(append(small, "-trace", ok)...); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	args := append([]string{}, small...)
	args[1] += ",no-such-exp"
	if code, _, _ := fedbench(append(args, "-trace", failed)...); code != 1 {
		t.Fatalf("a run with an unknown experiment exited %d, want 1", code)
	}
	read := func(path string) []obs.Event {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		evs, err := tracefile.ReadAll(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		return evs
	}
	want, got := read(ok), read(failed)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("the failed run's trace has %d events, the successful run's %d", len(got), len(want))
	}
	for i := range want {
		if a, b := obs.AppendEvent(nil, got[i]), obs.AppendEvent(nil, want[i]); !bytes.Equal(a, b) {
			t.Fatalf("event %d: failed run %s, successful run %s", i, a, b)
		}
	}
}

// TestJSONBaseline: -json writes one entry per run that reads back as
// experiments.BenchEntry, -csv and -series write the points, and the
// -baseline and -tolerance flags of the old loss gate are unknown flags
// (experiments.TestBaseline holds BENCH_baseline.json now).
func TestJSONBaseline(t *testing.T) {
	dir := t.TempDir()
	js, csv := filepath.Join(dir, "bench.json"), filepath.Join(dir, "points.csv")
	code, stdout, stderr := fedbench(append(small, "-json", js, "-csv", csv, "-series")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if points, err := os.ReadFile(csv); err != nil || !bytes.Contains(points, []byte("ext-partialwork")) {
		t.Fatalf("csv: %v\n%s", err, points)
	}
	if !strings.Contains(stdout, "] full-work FedProx(mu=1)\n round ") {
		t.Fatalf("-series printed no per-round series:\n%s", stdout)
	}
	b, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var entries []experiments.BenchEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 7 || entries[0].Experiment != "ext-partialwork" || entries[0].Rounds != 4 || !(entries[0].FinalLoss > 0) {
		t.Fatalf("-json wrote %d entries, want ext-partialwork's 7 runs at 4 rounds: %+v", len(entries), entries)
	}
	for _, flag := range [][]string{{"-baseline", js}, {"-tolerance", "0.1"}} {
		code, _, stderr := fedbench(append(small, flag...)...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag[0]) {
			t.Errorf("fedbench %s: exit %d, stderr %q; want 2, an unknown flag", strings.Join(flag, " "), code, stderr)
		}
	}
}

// TestRunsShareNoFlagState: each run parses its own flags, so a second
// run in the same process sees none of the first's.
func TestRunsShareNoFlagState(t *testing.T) {
	if code, _, _ := fedbench("-exp", "no-such-exp"); code != 1 {
		t.Fatal("first run")
	}
	if code, _, stderr := fedbench(); code != 2 || !strings.Contains(stderr, "-exp is required") {
		t.Fatalf("a second run inherited the first's -exp: exit %d, %q", code, stderr)
	}
}

// TestIDsShareRuns: ids given together execute each distinct run once —
// figure7 and figure10 show figure1's and figure9's runs, and figure8's
// are figure1's no-straggler FedProx runs, tracked for it — while every
// id prints, in the summary, the series and the CSV, the bytes it prints
// alone.
func TestIDsShareRuns(t *testing.T) {
	dir := t.TempDir()
	ids := []string{"figure1", "figure7", "figure8", "figure9", "figure10"}
	flags := []string{"-fast", "-datasets", "synthetic", "-series"}
	trace, csv := filepath.Join(dir, "together.jsonl"), filepath.Join(dir, "together.csv")
	code, together, stderr := fedbench(append([]string{"-exp", strings.Join(ids, ","), "-trace", trace, "-csv", csv}, flags...)...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := tracefile.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	starts := 0
	for _, ev := range evs {
		if ev.Kind == obs.KindRunStart {
			starts++
		}
	}
	if starts != 15 {
		t.Errorf("the trace records %d runs, want figure1's 9 and figure9's 6", starts)
	}

	var alone, aloneCSV strings.Builder
	for i, id := range ids {
		one := filepath.Join(dir, id+".csv")
		code, stdout, stderr := fedbench(append([]string{"-exp", id, "-csv", one}, flags...)...)
		if code != 0 {
			t.Fatalf("%s: exit %d: %s", id, code, stderr)
		}
		alone.WriteString(stdout)
		b, err := os.ReadFile(one)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 { // a file of several results carries the header once
			b = b[bytes.IndexByte(b, '\n')+1:]
		}
		aloneCSV.Write(b)
	}
	if together != alone.String() {
		t.Errorf("stdout of the ids together differs from each id's alone:\n%s\nalone:\n%s", together, alone.String())
	}
	if b, err := os.ReadFile(csv); err != nil || string(b) != aloneCSV.String() {
		t.Errorf("the CSV of the ids together differs from each id's alone (%v)", err)
	}
}
