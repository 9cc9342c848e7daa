package mptcplab_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzSmokeLine matches one native target of the Makefile's fuzz-smoke
// recipe: its name and its package directory.
var fuzzSmokeLine = regexp.MustCompile(`-fuzz '\^(Fuzz\w+)\$\$' -fuzztime \$\(FUZZTIME\) \./(\S+)/`)

var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)

// TestFuzzSmokeListsEveryTarget: every Fuzz function of the module is a
// line of make fuzz-smoke (and so runs in CI past its seed corpus), and
// every line names a Fuzz function in its package.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz-smoke:\n")
	if !ok {
		t.Fatal("the Makefile has no fuzz-smoke target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	listed := map[string]bool{}
	for _, m := range fuzzSmokeLine.FindAllStringSubmatch(recipe, -1) {
		listed[m[2]+"."+m[1]] = true
	}

	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllStringSubmatch(string(b), -1) {
			found[filepath.ToSlash(filepath.Dir(path))+"."+m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatal("no Fuzz functions found in the module")
	}
	for _, target := range sortedKeys(found) {
		if !listed[target] {
			t.Errorf("%s is not in make fuzz-smoke", target)
		}
	}
	for _, target := range sortedKeys(listed) {
		if !found[target] {
			t.Errorf("make fuzz-smoke lists %s, which no test file defines", target)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
