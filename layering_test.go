package mptcplab_test

import (
	"go/ast"
	"go/parser"
	"go/token"
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
// can call.
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
}
