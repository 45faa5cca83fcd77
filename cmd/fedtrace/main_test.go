package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"fedprox/internal/experiments"
	"fedprox/internal/obs"
	"fedprox/internal/obs/tracefile"
)

// TestDiffTraces: identical traces agree; a divergent field is named with
// both events; a trace that runs longer is named once, with a positive
// count, whichever side it is on.
func TestDiffTraces(t *testing.T) {
	trace := func() []obs.Event {
		var evs []obs.Event
		for r := 0; r < 3; r++ {
			d := obs.NewEvent(obs.KindDispatch)
			d.Round, d.Device, d.BytesDown = r, 4, 800
			c := obs.NewEvent(obs.KindRoundClose)
			c.Round, c.N, c.Seconds = r, 1, 0.5
			evs = append(evs, d, c)
		}
		return evs
	}
	changed := trace()
	changed[2].Device = 5
	for _, tc := range []struct {
		name          string
		a, b          []obs.Event
		divergent     bool
		want, notWant []string
	}{
		{"identical", trace(), trace(), false, []string{"traces identical: 6 events"}, []string{"more"}},
		{"divergent field", trace(), changed, true,
			[]string{`first divergent event: #2, field "device"`, `a.jsonl: {"kind":"dispatch"`, `"device":5`}, []string{"identical"}},
		{"a longer", trace(), trace()[:2], true, []string{"traces agree for 2 events, then a.jsonl has 4 more"}, []string{"b.jsonl has", "-"}},
		{"b longer", trace()[:5], trace(), true, []string{"traces agree for 5 events, then b.jsonl has 1 more"}, []string{"a.jsonl has", "-"}},
	} {
		var out strings.Builder
		if got := diffTraces(&out, "a.jsonl", "b.jsonl", tc.a, tc.b); got != tc.divergent {
			t.Errorf("%s: divergent = %v, want %v", tc.name, got, tc.divergent)
		}
		for _, s := range tc.want {
			if !strings.Contains(out.String(), s) {
				t.Errorf("%s: report lacks %q:\n%s", tc.name, s, out.String())
			}
		}
		for _, s := range tc.notWant {
			if strings.Contains(out.String(), s) {
				t.Errorf("%s: report has %q:\n%s", tc.name, s, out.String())
			}
		}
	}
}

// record runs one experiment at the -fast preset and returns the JSONL
// trace `fedbench -exp id -fast -trace` would have written.
func record(t *testing.T, id string) []byte {
	t.Helper()
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
	if err := summarize(io.Discard, bytes.NewReader(trace)); err != nil {
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
	if err := summarize(&out, bytes.NewReader(record(t, "ext-hier"))); err != nil {
		t.Fatalf("summary: %v", err)
	}
	for _, want := range []string{"per-tier rollup", "slow edge"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("the tiered summary lacks %q", want)
		}
	}
}
