// Package archtest holds the architecture rules that keep a deleted twin
// from growing back, as tests over the parsed source: they fail where the
// work is done (`go test ./...`) with the sentence that says why.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// source is one non-test Go file, by its slash path from the repo root.
type source struct {
	path string
	file *ast.File
}

// parse returns every non-test Go file under the given repo directories.
func parse(t *testing.T, dirs ...string) []source {
	t.Helper()
	var out []source
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join("..", "..", dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			rel, _ := filepath.Rel(filepath.Join("..", ".."), p)
			out = append(out, source{filepath.ToSlash(rel), f})
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// name is the identifier an expression ends in: Done for core.Done and Done.
func name(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return v.Sel.Name
	}
	return ""
}

// where lists, once per hit, the files in which visit reports one.
func where(srcs []source, visit func(path string, n ast.Node) bool) []string {
	var hits []string
	for _, s := range srcs {
		ast.Inspect(s.file, func(n ast.Node) bool {
			if n != nil && visit(s.path, n) {
				hits = append(hits, s.path)
			}
			return true
		})
	}
	return hits
}

var commands = []string{"Dispatch", "Evaluate", "ObserveLoss", "AdvanceClock", "pause", "Done"}

func TestArchitecture(t *testing.T) {
	all := parse(t, "internal", "cmd", "examples")
	for _, rule := range []struct {
		name, why string
		got, want []string
	}{{
		name: "one command interpreter",
		why: `core.Drive holds the only type switch over core.Command; every executor is a core.Backend under it.
A second switch is a second interpreter — the hand-copied driver loops growing back — so a new command is
wired into Drive and the Backend interface, never special-cased in an executor. A switch over Command is
recognised by a case arm naming a command type.`,
		got: where(all, func(_ string, n ast.Node) bool {
			sw, ok := n.(*ast.TypeSwitchStmt)
			return ok && slices.ContainsFunc(sw.Body.List, func(c ast.Stmt) bool {
				return slices.ContainsFunc(c.(*ast.CaseClause).List, func(e ast.Expr) bool { return slices.Contains(commands, name(e)) })
			})
		}),
		want: []string{"internal/core/drive.go"},
	}, {
		name: "one wire backend",
		why: `internal/fednet has one core.Backend (backend.go's wireBackend): sync rounds, async folds and a tier
edge's windows share its readers, its per-request timeout, its failConn and its gather, and only
Coordinator.WorkerLost decides whether a run survives a lost worker. A second method named Wait, or the
lock-step round trip's functions (roundTripAll, exchange), is the twin transport growing back.`,
		got: where(all, func(path string, n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			return ok && strings.HasPrefix(path, "internal/fednet/") &&
				(fn.Recv != nil && fn.Name.Name == "Wait" || fn.Name.Name == "roundTripAll" || fn.Name.Name == "exchange")
		}),
		want: []string{"internal/fednet/backend.go"},
	}, {
		name: "one tier",
		why: `An edge is a device runtime whose local solve is a coordinator window: core.Edge (internal/core/edge.go)
is the only caller of the windowing entry point, Coordinator.window, and serves both core.RunTiered and the
fednet process tree, which is why the two reproduce each other. A second caller — or anything outside
internal/core naming Resume, Pause or Stepped, the exported windowing API this replaced — is the second
hand-written tier loop growing back; outside core the only ending command is Done.`,
		got: where(all, func(path string, n ast.Node) bool {
			switch v := n.(type) {
			case *ast.CallExpr:
				return name(v.Fun) == "window"
			case *ast.SelectorExpr:
				return !strings.HasPrefix(path, "internal/core/") && slices.Contains([]string{"Resume", "Pause", "Stepped"}, v.Sel.Name)
			}
			return false
		}),
		want: []string{"internal/core/edge.go"},
	}} {
		if !slices.Equal(rule.got, rule.want) {
			t.Errorf("%s: found in %v, want exactly %v\n%s", rule.name, rule.got, rule.want, rule.why)
		}
	}
}
