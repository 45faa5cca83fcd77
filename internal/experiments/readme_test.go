package experiments

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	readmeGoRun = regexp.MustCompile(`go run\s+\./([\w./-]+)`)
	readmeExp   = regexp.MustCompile(`fedbench[^\x60\n]*?\s-exp\s+([a-z0-9][\w,-]*)`) // \x60: a backtick ends the code span
)

// TestREADMECommands holds README's commands to the tree: every `go run
// ./dir` names a directory holding package main, and every id of a
// `fedbench … -exp a,b` resolves through Lookup. A failure names the
// README line.
func TestREADMECommands(t *testing.T) {
	const root = "../.."
	b, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	readme := string(b)
	line := func(off int) int { return 1 + strings.Count(readme[:off], "\n") }

	runs := readmeGoRun.FindAllStringSubmatchIndex(readme, -1)
	for _, m := range runs {
		if dir := readme[m[2]:m[3]]; !holdsMain(filepath.Join(root, dir)) {
			t.Errorf("README.md:%d: go run ./%s: no package main in %s", line(m[2]), dir, dir)
		}
	}
	exps := readmeExp.FindAllStringSubmatchIndex(readme, -1)
	for _, m := range exps {
		for _, id := range strings.Split(readme[m[2]:m[3]], ",") {
			if _, ok := Lookup(id); !ok {
				t.Errorf("README.md:%d: fedbench -exp %s: no experiment %q (known: %s)", line(m[2]), readme[m[2]:m[3]], id, strings.Join(IDs(), ", "))
			}
		}
	}
	if len(runs) == 0 || len(exps) == 0 {
		t.Fatalf("README.md: found %d go run and %d fedbench -exp commands; the patterns no longer match it", len(runs), len(exps))
	}
}

// holdsMain reports whether dir has a non-test Go file of package main.
func holdsMain(dir string) bool {
	files, _ := filepath.Glob(filepath.Join(dir, "*.go"))
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if file, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly); err == nil && file.Name.Name == "main" {
			return true
		}
	}
	return false
}
