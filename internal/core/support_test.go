package core

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// renderSupport renders the support table as README's "What runs where"
// block: one row per support row, one column per entry point, each
// column the executors the coordinators that entry point builds belong
// to.
func renderSupport() string {
	cols := []struct {
		name string
		x    executor
	}{
		{"RunFleet sync", simSync}, {"RunFleet async", simAsync}, {"RunTiered", tiered | edge},
		{"Replay sync", replaySync}, {"Replay async", replayAsync},
		{"fednet sync", wireSync}, {"fednet async", wireAsync}, {"fednet edge", wireSync | edge},
	}
	var b strings.Builder
	b.WriteString("| option |")
	for _, c := range cols {
		fmt.Fprintf(&b, " %s |", c.name)
	}
	b.WriteString(" why it is refused |\n|---|")
	b.WriteString(strings.Repeat(":-:|", len(cols)))
	b.WriteString("---|\n")
	for _, r := range support {
		fmt.Fprintf(&b, "| %s |", r.option)
		for _, c := range cols {
			cell := "·"
			if r.refused&c.x != 0 {
				cell = "✗"
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		fmt.Fprintf(&b, " %s |\n", r.why)
	}
	return b.String()
}

// TestSupportTableInREADME holds README's "What runs where" block to the
// support table it is rendered from.
func TestSupportTableInREADME(t *testing.T) {
	const begin, end = "<!-- support table: begin -->\n", "<!-- support table: end -->"
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), begin)
	if ok {
		block, _, ok = strings.Cut(block, end)
	}
	if !ok {
		t.Fatalf("README.md has no %q … %q block", strings.TrimSpace(begin), end)
	}
	if want := renderSupport(); block != want {
		t.Fatalf("README.md's support table drifted from support.go; replace the block with:\n%s", want)
	}
}

// TestBackendAbilitiesMatchSupport: a backend type has Wait, ObserveLoss
// or AdvanceClock exactly when some entry point that builds it can be
// handed the command — when the support table admits Async (replies
// arrive after Dispatch returns), AdaptiveMu, or VTime on a synchronous
// round. The table decides at NewCoordinator; this holds the method sets
// to its decisions by type, so a function field a run may leave nil counts
// for nothing. fednet's and feddane's backends are held by their
// packages' refusal tests.
func TestBackendAbilitiesMatchSupport(t *testing.T) {
	timed := VTimeConfig{Model: fakeLatency{}}
	total := AsyncConfig{Mode: AsyncTotal}
	// Every coordinator each entry point builds: RunTiered's are a root
	// and its edges.
	runFleet, runReplay, runTiered := []CoordinatorOptions{{}}, []CoordinatorOptions{{replay: true}}, []CoordinatorOptions{{Tier: 1}, {Tier: 2}}
	type abilities struct{ wait, loss, clock bool }
	need := map[reflect.Type]abilities{}
	for _, e := range []struct {
		cfg     Config // the mode the entry point runs in
		opts    []CoordinatorOptions
		backend Backend // the type it builds in that mode
	}{
		{Config{}, runFleet, (*fleetBackend)(nil)},
		{Config{Async: total, VTime: timed}, runFleet, (*vtimeBackend)(nil)},
		{Config{VTime: timed}, runReplay, (*simBackend)(nil)},
		{Config{Async: total, VTime: timed}, runReplay, (*vtimeBackend)(nil)},
		{Config{}, runTiered, (*simBackend)(nil)},
		{Config{Async: total}, runTiered, (*simBackend)(nil)},
		{Config{Async: total}, []CoordinatorOptions{{WireEncoded: true}}, (*tapeBackend)(nil)},
	} {
		admits := func(set func(*Config)) bool {
			cfg := e.cfg
			set(&cfg)
			for _, o := range e.opts {
				if checkSupport(cfg, o) != nil {
					return false
				}
			}
			return true
		}
		rounds := !e.cfg.Async.Enabled() // a synchronous run
		typ := reflect.TypeOf(e.backend)
		n := need[typ]
		n.wait = n.wait || !rounds && admits(func(*Config) {})
		n.loss = n.loss || admits(func(c *Config) { c.AdaptiveMu = true })
		n.clock = n.clock || rounds && admits(func(c *Config) { c.VTime = timed })
		need[typ] = n
	}
	for typ, n := range need {
		has := abilities{
			wait:  typ.Implements(reflect.TypeFor[waiter]()),
			loss:  typ.Implements(reflect.TypeFor[lossObserver]()),
			clock: typ.Implements(reflect.TypeFor[clock]()),
		}
		if has != n {
			t.Errorf("%v: {Wait ObserveLoss AdvanceClock} = %v, but the support table asks for %v", typ, has, n)
		}
	}
}
