package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// allowedImports are the repo packages the benchmark may reach. Later
// changes may not edit this directory, so everything it names is pinned:
// the list is the issue's, and holds no package a planned refactor
// removes.
var allowedImports = map[string]bool{
	"core": true, "fednet": true, "comm": true, "solver": true, "model": true, "model/linear": true,
	"data": true, "data/mnistsim": true, "data/synthetic": true, "metrics": true, "tensor": true,
	"frand": true, "vtime": true, "obs": true,
}

// TestStableSurface walks the package's files: every repo import is on
// the allowlist, no selector names a float32 twin (SGD32, As32, …; f32
// is reached through Config.Precision = tensor.F32 alone), and README.md
// lists every package-level repo symbol the benchmark calls.
func TestStableSurface(t *testing.T) {
	const prefix = "fedprox/internal/"
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			local := map[string]string{} // package identifier → path below internal/
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, prefix) {
					continue
				}
				rel := strings.TrimPrefix(path, prefix)
				if !allowedImports[rel] {
					t.Errorf("%s imports %s, which is not on the allowlist", name, path)
				}
				local[rel[strings.LastIndex(rel, "/")+1:]] = rel
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if strings.HasSuffix(sel.Sel.Name, "32") && sel.Sel.Name != "F32" {
					t.Errorf("%s uses %s: a name ending in 32 is a float32 twin", name, sel.Sel.Name)
				}
				if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] != "" && !strings.HasSuffix(name, "_test.go") {
					used[id.Name+"."+sel.Sel.Name] = true
				}
				return true
			})
		}
	}
	var missing []string
	for sym := range used {
		if !strings.Contains(string(readme), "`"+sym+"`") {
			missing = append(missing, sym)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("README.md does not list these repo symbols the benchmark calls: %v", missing)
	}
}
