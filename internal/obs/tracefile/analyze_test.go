package tracefile

import (
	"strings"
	"testing"

	"fedprox/internal/obs"
)

// TestDiffTraces: identical traces agree; a divergent field is named with
// both events; a trace that runs longer is named once, with a positive
// count, whichever side it is on; per-round deltas are per run, so a
// change to one run's round shows under that run alone.
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
	// Two runs of the same rounds; the first's round 1 runs 0.25 s
	// longer in b.
	twoRuns := func(secs float64) []obs.Event {
		start := obs.NewEvent(obs.KindRunStart)
		evs := append([]obs.Event{start}, trace()...)
		evs = append(append(evs, start), trace()...)
		evs[4].Seconds = secs
		return evs
	}
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
		{"two runs", twoRuns(0.5), twoRuns(0.75), true,
			[]string{`first divergent event: #4, field "secs"`, "per-round deltas (b.jsonl minus a.jsonl):\n  run 0 round 1     secs +0.2500\n"}, []string{"run 1"}},
	} {
		var out strings.Builder
		if got := Diff(&out, "a.jsonl", "b.jsonl", tc.a, tc.b); got != tc.divergent {
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
