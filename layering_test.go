package mptcplab_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayering pins the import rules the refactors established: the
// generic sweep engine depends on nothing but the standard library;
// world sits under its three callers (and the engine that schedules
// them), never beside them; and cli, the flag → spec layer every binary
// shares, knows no spec — each binary binds its own. It also pins the
// shape that layer gives a binary: os.Exit is called from func main
// alone, so everything else is a run(args, stdout, stderr) int a test
// can call. And it pins the one fault path: outside the packages that
// own links and addresses (chaos, world, netem, mptcp), no program file
// takes a link down or up or withdraws or rejoins an address, so a
// fault reaches a link only through a chaos schedule, and one duration
// grammar: outside internal/units no program file calls
// time.ParseDuration (flag.Duration for wall-clock flags is fine). The
// invariant checker (check) and the trace referee (trace) stay
// independent, so neither can vouch for the other. Every internal
// package is imported by a program file outside bench/, so none is
// kept alive by its own tests alone. Last, every example has a test
// beside it, so none prints numbers nothing checks.
func TestLayering(t *testing.T) {
	for dir, banned := range map[string][]string{
		"internal/sweep": {"mptcplab/"},
		"internal/world": {
			"mptcplab/internal/check", "mptcplab/internal/experiment",
			"mptcplab/internal/load", "mptcplab/internal/sweep",
		},
		"internal/cli": {
			"mptcplab/internal/experiment", "mptcplab/internal/load", "mptcplab/internal/check",
			"mptcplab/internal/world", "mptcplab/internal/sweep", "mptcplab/internal/chaos",
		},
		"internal/check": {"mptcplab/internal/trace"},
	} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				for _, b := range banned {
					if strings.HasPrefix(path, b) {
						t.Errorf("%s imports %s", file, path)
					}
				}
			}
		}
	}

	mains, err := filepath.Glob("cmd/*/*.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("cmd: no Go files (%v)", err)
	}
	for _, file := range mains {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == "main" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Exit" {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "os" {
						t.Errorf("%s calls os.Exit outside func main", file)
					}
				}
				return true
			})
		}
	}

	faultWriters := map[string]bool{
		"SetDown": true, "SetUp": true, "SetWiFiDown": true, "SetCellDown": true,
		"RemoveLocalAddr": true, "RejoinLocalAddr": true,
	}
	faultOwners := []string{"internal/chaos/", "internal/world/", "internal/netem/", "internal/mptcp/"}
	internal, imported := map[string]bool{}, map[string]bool{} // package dirs
	err = filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return err
		}
		slash := filepath.ToSlash(file)
		faultOwner := false
		for _, owner := range faultOwners {
			faultOwner = faultOwner || strings.HasPrefix(slash, owner)
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			return err
		}
		if strings.HasPrefix(slash, "internal/") {
			internal[filepath.ToSlash(filepath.Dir(file))] = true
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if dir, ok := strings.CutPrefix(path, "mptcplab/"); ok && !strings.HasPrefix(slash, "bench/") {
				imported[dir] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !faultOwner && faultWriters[sel.Sel.Name] {
				t.Errorf("%s calls %s: a fault reaches a link only through a chaos schedule", file, sel.Sel.Name)
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" && sel.Sel.Name == "ParseDuration" &&
				!strings.HasPrefix(slash, "internal/units/") {
				t.Errorf("%s calls time.ParseDuration: a simulated duration parses through units.ParseTime", file)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range internal {
		if !imported[dir] {
			t.Errorf("%s is imported by no program file outside bench/: only its tests use it", dir)
		}
	}

	examples, err := filepath.Glob("examples/*/*.go")
	if err != nil || len(examples) == 0 {
		t.Fatalf("examples: no Go files (%v)", err)
	}
	for _, file := range examples {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		tests, err := filepath.Glob(filepath.Join(filepath.Dir(file), "*_test.go"))
		if err != nil || len(tests) == 0 {
			t.Errorf("%s has no _test.go beside it: pin its output or fold it into what it duplicates", file)
		}
	}
}
