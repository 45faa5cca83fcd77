package core

import (
	"fmt"
	"os"
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
