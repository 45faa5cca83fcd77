package experiments

import (
	"encoding/json"
	"os"
	"testing"
)

// wallClock names the runs whose numbers depend on the order in which
// replies reach a real socket: ext-async's asynchronous and buffered
// fednet runs fold each reply as it arrives. What holds them instead is
// claim row i-async-reexec: each re-executes from its own trace bit for
// bit.
var wallClock = map[string]bool{
	"ext-async | async FedProx(mu=1) [async a=1 p=0.5] [fednet]":            true,
	"ext-async | buffered FedProx(mu=1) [buffered a=1 p=0.5 K=10] [fednet]": true,
}

// baselineIDs are the experiments TestBaseline holds to
// BENCH_baseline.json.
var baselineIDs = []string{"ext-async", "ext-vtime", "ext-partialwork", "ext-hier", "ext-precision"}

// TestBaseline holds the five extension sweeps at Fast() to
// BENCH_baseline.json, every field of every entry but the wall-clock
// seconds: each of those runs is bit-deterministic, so an entry that
// moves at all is a change of behaviour, and the failure names it. A
// change meant to move the numbers regenerates the file with
//
//	go run ./cmd/fedbench -exp ext-async,ext-vtime,ext-partialwork,ext-hier,ext-precision -fast -json BENCH_baseline.json
func TestBaseline(t *testing.T) {
	b, err := os.ReadFile("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var entries []BenchEntry
	if err := json.Unmarshal(b, &entries); err != nil {
		t.Fatal(err)
	}
	key := func(e BenchEntry) string { return e.Experiment + " | " + e.Section + " | " + e.Method }
	want := map[string]BenchEntry{}
	for _, e := range entries {
		if !wallClock[e.Experiment+" | "+e.Method] {
			want[key(e)] = e
		}
	}
	for _, id := range baselineIDs {
		for _, got := range result(t, id, Fast()).BenchEntries() {
			if wallClock[got.Experiment+" | "+got.Method] {
				continue
			}
			k := key(got)
			w, ok := want[k]
			delete(want, k)
			got.Seconds, w.Seconds = 0, 0
			switch {
			case !ok:
				t.Errorf("%s: no baseline entry; got %+v", k, got)
			case got != w:
				t.Errorf("%s:\n got  %+v\n want %+v", k, got, w)
			}
		}
	}
	for k := range want {
		t.Errorf("%s: baseline entry no run produced", k)
	}
}
