package mptcplab_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLayering pins the two import rules the world refactor
// established: the generic sweep engine depends on nothing but the
// standard library, and world sits under its three callers (and the
// engine that schedules them), never beside them.
func TestLayering(t *testing.T) {
	for dir, banned := range map[string][]string{
		"internal/sweep": {"mptcplab/"},
		"internal/world": {
			"mptcplab/internal/check", "mptcplab/internal/experiment",
			"mptcplab/internal/load", "mptcplab/internal/sweep",
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
}
