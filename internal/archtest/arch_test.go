// Package archtest holds the architecture rules — the ones that keep a
// deleted twin from growing back, and the ones over the import graph — as
// tests over the parsed source: they fail where the work is done
// (`go test ./...`, no subprocess) with the sentence that says why.
package archtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// source is one non-test Go file, by its slash path from the repo root.
type source struct {
	path string
	file *ast.File
}

// goFiles calls fn with the slash path, from the repo root, of every Go
// file under the given repo directories, tests included.
func goFiles(t *testing.T, dirs []string, fn func(rel, p string) error) {
	t.Helper()
	root := filepath.Join("..", "..")
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
				return err
			}
			rel, _ := filepath.Rel(root, p)
			return fn(filepath.ToSlash(rel), p)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// parse returns every non-test Go file under the given repo directories.
func parse(t *testing.T, dirs ...string) []source {
	t.Helper()
	var out []source
	fset := token.NewFileSet()
	goFiles(t, dirs, func(rel, p string) error {
		if strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		out = append(out, source{rel, f})
		return err
	})
	return out
}

// module is go.mod's module path: "fedprox/internal/x" is the directory
// internal/x.
const module = "fedprox/"

// imported is the import path an import spec names, or "" for any other
// node.
func imported(n ast.Node) string {
	if im, ok := n.(*ast.ImportSpec); ok {
		return strings.Trim(im.Path.Value, `"`)
	}
	return ""
}

// reach returns the package directories the packages under the root
// directories depend on, themselves included: the transitive closure of
// the module's own imports over the parsed (non-test) files, which is what
// `go list -deps` prints of this module.
func reach(srcs []source, roots ...string) map[string]bool {
	deps := map[string][]string{}
	for _, s := range srcs {
		for _, im := range s.file.Imports {
			if dir, ok := strings.CutPrefix(imported(im), module); ok {
				deps[path.Dir(s.path)] = append(deps[path.Dir(s.path)], dir)
			}
		}
	}
	seen := map[string]bool{}
	var visit func(pkg string)
	visit = func(pkg string) {
		if !seen[pkg] {
			seen[pkg] = true
			for _, d := range deps[pkg] {
				visit(d)
			}
		}
	}
	for pkg := range deps {
		if slices.ContainsFunc(roots, func(r string) bool { return pkg == r || strings.HasPrefix(pkg, r+"/") }) {
			visit(pkg)
		}
	}
	return seen
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

// coreLit is the core type a composite literal builds — Dispatch for
// core.Dispatch{…}, &core.Dispatch{…} and []core.Dispatch{…} — or "".
func coreLit(lit *ast.CompositeLit) string {
	typ := lit.Type // a slice or map literal's elements may elide theirs
	switch v := typ.(type) {
	case *ast.ArrayType:
		typ = v.Elt
	case *ast.MapType:
		typ = v.Value
	}
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if sel, ok := typ.(*ast.SelectorExpr); ok && name(sel.X) == "core" {
		return sel.Sel.Name
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

// strayAssembly lists the assembly files that break the one-strip-set
// rule: any .s file outside internal/tensor, and any there with a TEXT
// symbol (the CPUID stub cpuAVX aside) not named in the oracle test's
// table or with a fused multiply-add.
func strayAssembly(t *testing.T) []string {
	t.Helper()
	root := filepath.Join("..", "..")
	read := func(rel string) string {
		b, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	oracle := read("internal/tensor/strips_test.go")
	var stray []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir // .git, the benchmark's build cache
		case d.IsDir() || !strings.HasSuffix(p, ".s"):
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if path.Dir(rel) != "internal/tensor" {
			stray = append(stray, rel)
			return nil
		}
		src := read(rel)
		for _, m := range regexp.MustCompile(`(?m)^TEXT ·(\w+)`).FindAllStringSubmatch(src, -1) {
			if m[1] != "cpuAVX" && !strings.Contains(oracle, `"`+m[1]+`"`) {
				stray = append(stray, rel)
				return nil
			}
		}
		if regexp.MustCompile(`(?i)VFN?M`).MatchString(src) {
			stray = append(stray, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return stray
}

// unusedExports lists, as dir.Name, every exported top-level func, var and
// const of a non-test file under internal/ that no non-test file of another
// package directory names as pkg.Name. Exempt are Err… sentinels, every name
// of a parenthesised const group one of whose names is used, and the
// packages on the testOnly allowlist.
func unusedExports(srcs []source) []string {
	pkgName := map[string]string{} // package directory → package name
	for _, s := range srcs {
		pkgName[path.Dir(s.path)] = s.file.Name.Name
	}
	used := map[string]bool{}
	for _, s := range srcs {
		local := map[string]string{} // identifier in this file → package directory
		for _, im := range s.file.Imports {
			if dir, ok := strings.CutPrefix(imported(im), module); ok {
				local[pkgName[dir]] = dir
				if im.Name != nil {
					local[im.Name.Name] = dir
				}
			}
		}
		ast.Inspect(s.file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && local[id.Name] != "" {
					used[local[id.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	var unused []string
	for _, s := range srcs {
		dir := path.Dir(s.path)
		if !strings.HasPrefix(dir, "internal/") || slices.Contains(testOnly, dir) {
			continue
		}
		for _, decl := range s.file.Decls {
			var names []*ast.Ident
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = []*ast.Ident{d.Name}
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if v, ok := spec.(*ast.ValueSpec); ok {
						names = append(names, v.Names...)
					}
				}
				if d.Tok == token.CONST && d.Lparen.IsValid() &&
					slices.ContainsFunc(names, func(id *ast.Ident) bool { return used[dir+"."+id.Name] }) {
					names = nil
				}
			}
			for _, id := range names {
				if id.IsExported() && !strings.HasPrefix(id.Name, "Err") && !used[dir+"."+id.Name] {
					unused = append(unused, dir+"."+id.Name)
				}
			}
		}
	}
	return unused
}

// testOnly is the one allowlist of internal/ packages no binary reaches;
// the exports rule skips them too.
var testOnly = []string{
	"internal/archtest",      // these rules: test-only by design
	"internal/checkpoint",    // core.Checkpointer's resume tests over a gob store: test-only by design
	"internal/data/datafile", // regeneration replaces a dataset file: test-only by design
}

var commands = []string{"Dispatch", "Evaluate", "ObserveLoss", "AdvanceClock", "pause", "Done"}

// coreAllowed is the closed list of fedprox packages internal/core may
// depend on, directly or through one another.
var coreAllowed = []string{
	"internal/comm", "internal/data", "internal/frand", "internal/metrics", "internal/model", "internal/obs",
	"internal/privacy", "internal/solver", "internal/tensor", "internal/tier", "internal/vtime",
}

func TestArchitecture(t *testing.T) {
	all := parse(t, "internal", "cmd")
	withBench := append(parse(t, "benchmark"), all...)
	coreDeps := reach(all, "internal/core")
	// Every directory of internal/ holding Go files, tests included, that
	// no binary reaches.
	var unreachable []string
	used := reach(all, "cmd")
	goFiles(t, []string{"internal"}, func(rel, _ string) error {
		if dir := path.Dir(rel); !used[dir] && !slices.Contains(unreachable, dir) {
			unreachable = append(unreachable, dir)
		}
		return nil
	})
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
	}, {
		name: "obs stays dependency-free",
		why: `internal/obs is the contract that lets every layer emit events: it must never import another fedprox
package (stdlib only), or core <-> obs import cycles and hidden coupling creep in.`,
		got: where(all, func(p string, n ast.Node) bool {
			return path.Dir(p) == "internal/obs" && strings.HasPrefix(imported(n), module)
		}),
	}, {
		name: "core gains no new non-stdlib deps",
		why: `internal/core is the sans-I/O protocol kernel; its fedprox dependency set is a closed list (the pure leaf
packages it computes with). Anything new — a CLI, network, or storage import, by core or by a package core
depends on — is layering leaking into the kernel and must be argued into this allowlist explicitly.`,
		got: where(all, func(p string, n ast.Node) bool {
			dir, local := strings.CutPrefix(imported(n), module)
			return local && coreDeps[path.Dir(p)] && !slices.Contains(coreAllowed, dir)
		}),
	}, {
		name: "core is sans-I/O, no clocks",
		why: `internal/core decides; its drivers move bytes and tell time. No file of it imports os, io, net, time or
encoding/…: a run's resumable state leaves as a typed core.Snapshot that its Checkpointer encodes once,
wire messages are fednet's, and the only clock is the driver's Tick.`,
		got: where(all, func(p string, n ast.Node) bool {
			root, _, _ := strings.Cut(imported(n), "/")
			return path.Dir(p) == "internal/core" && slices.Contains([]string{"os", "io", "net", "time", "encoding"}, root)
		}),
	}, {
		name: "no gob on the socket",
		why: `fednet's wire is length-prefixed frames (internal/fednet/frame.go) whose every length and count is checked
against a bound before anything is allocated. A gob codec reads ahead of the message it decodes and allocates
what its input declares — on a net.Conn or inside a frame alike — so the package does not import it. And a
conn with a round-trip lock (rtMu) is the serial per-device exchange growing back beside the pipelined one.`,
		got: where(all, func(p string, n ast.Node) bool {
			id, _ := n.(*ast.Ident)
			return path.Dir(p) == "internal/fednet" && (imported(n) == "encoding/gob" || id != nil && id.Name == "rtMu")
		}),
	}, {
		name: "the wire carries core's messages",
		why: `A TrainRequest frame decodes into the core.Dispatch a Worker hands its device runtime as it is, a reply is a
core.Reply or core.EvalReply plus only what core lacks, and a Hello lists core.DeviceReg: internal/fednet/frame.go
is the one place their fields meet bytes. A composite literal of core.Dispatch, Reply, EvalRequest, EvalReply or
DeviceReg in another fednet file is a translation layer growing back — core's messages copied field by field
into and out of a mirror, which every new dispatch field must then be threaded through.`,
		got: where(all, func(p string, n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			return ok && path.Dir(p) == "internal/fednet" && p != "internal/fednet/frame.go" &&
				slices.Contains([]string{"Dispatch", "Reply", "EvalRequest", "EvalReply", "DeviceReg"}, coreLit(lit))
		}),
	}, {
		name: "one driver loop",
		why: `A run's trajectory is assembled in one place: the core.Coordinator records every core.Point of a
core.History as its evaluations complete, whichever backend drives it (the simulator, virtual time, fednet,
FedDane). A core.History or core.Point composite literal in a non-test file outside internal/core is a
hand-written driver loop growing back beside core.Drive — its own selection, aggregation and evaluation
cadence, drifting from the coordinator's (FedDane's did: it ignored the codec and wrote 0 for NaN).`,
		got: where(withBench, func(p string, n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			return ok && path.Dir(p) != "internal/core" && slices.Contains([]string{"History", "Point"}, coreLit(lit))
		}),
	}, {
		name: "internal/ is reachable",
		why: `internal/ holds what a binary or another internal package uses: every package under it is a
dependency of ./cmd/.... A package only its own tests import is a subsystem nobody runs; it
moves beside its one user or goes. The exceptions are the testOnly allowlist, each with its reason.`,
		got:  unreachable,
		want: testOnly,
	}, {
		name: "exports are imported",
		why: `An exported top-level func, var or const under internal/ is the surface the system uses: a non-test file of
another package under internal/, cmd/ or benchmark/ names it as pkg.Name. One that only its own
package calls is unexported; one that only tests call goes, and its tests check what it computed through
what the system does call. Types and methods are exempt (inferred use and interface satisfaction do not name
them), as are Err… sentinels (errors.Is is their contract), a parenthesised const group with any name used
outside (one value set), and the testOnly packages.`,
		got: unusedExports(withBench),
	}, {
		name: "one numeric path",
		why: `Arithmetic width is a type parameter inside internal/tensor, model/{linear,mlp}, solver and comm, chosen
once where a Precision is read; every interface between packages is float64. A func, method or type whose name
ends in 32 is the float32 twin stack growing back beside it. The exceptions are the one width constraint
(model.Model32, its Grad32 and the rows model.Narrow builds for it), a width alias (tensor.Vec32, or a Mat32 beside it), the assembly strips' names
ending in F32 and the frame reader's u32.`,
		got: where(all, func(_ string, n ast.Node) bool {
			var id *ast.Ident
			switch v := n.(type) {
			case *ast.FuncDecl:
				id = v.Name
			case *ast.TypeSpec:
				id = v.Name
			}
			return id != nil && strings.HasSuffix(id.Name, "32") && !strings.HasSuffix(id.Name, "F32") &&
				!slices.Contains([]string{"Grad32", "Model32", "Vec32", "Mat32", "u32"}, id.Name)
		}),
	}, {
		name: "one fleet-eval pass",
		why: `An evaluation visits each shard once (metrics.FleetEval): on a lazy fleet a visit is a shard synthesis,
the dominant cost of a large run. The accuracy-only pass (metrics.FleetAccuracy) exists for the benchmark
ladder and tests; an executor that calls it is walking the fleet a second time beside its loss pass.`,
		got: where(all, func(p string, n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			return ok && name(sel.X) == "metrics" && sel.Sel.Name == "FleetAccuracy" && !strings.HasPrefix(p, "internal/metrics/")
		}),
	}, {
		name: "no model-sized make on the frame path",
		why: `fednet decodes dense, packed and sparse-value payloads into pooled slices the receiver hands back with
comm.Update.Release (tensor.GetVec, comm.GetPacked), on the bulk and the portable path alike; a make sized by N
on the receive path (internal/fednet/frame.go) is the 535 MB a run of garbage growing back.`,
		got: where(all, func(p string, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || p != "internal/fednet/frame.go" || name(call.Fun) != "make" || len(call.Args) != 2 {
				return false
			}
			slice, ok := call.Args[0].(*ast.ArrayType)
			return ok && slice.Len == nil && slices.Contains([]string{"float64", "float32", "byte"}, name(slice.Elt)) &&
				slices.Contains([]string{"n", "u.N", "k"}, types.ExprString(call.Args[1]))
		}),
	}, {
		name: "assembly stays in internal/tensor",
		why: `The AVX strips under MatMulNT and AddOuterPanel (examples as rows read in place, four abreast; AddOuterPanel's
first block written over the gradient, added to +0, and its one to three leftover examples in one sequential pass),
MatVecAdd4 and ProxStep and the AVX2 strips under the byte quantiser (MaxAbsDiff, QuantizeBytes, DequantizeBytes) and
under Normals (boxMullerF64, frand.Source.Norm's Box–Muller) are the only assembly in the tree, and each must
reproduce its Go code bit for bit: so no .s file outside
internal/tensor, every TEXT symbol but the one CPUID stub
(cpuAVX) named in the table of TestStripsMatchGenericBits (internal/tensor/strips_test.go, the oracle test),
and no fused multiply-add (VFM…, VFNM…), which rounds once where the Go loop rounds twice. go vet's asmdecl
checks the frames.`,
		got: strayAssembly(t),
	}} {
		if !slices.Equal(rule.got, rule.want) {
			t.Errorf("%s: found in %v, want exactly %v\n%s", rule.name, rule.got, rule.want, rule.why)
		}
	}
}
