package main

import (
	"strings"
	"testing"

	"fedprox/internal/obs"
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
