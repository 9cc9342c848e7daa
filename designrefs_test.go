package mptcplab_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// designHeading matches a numbered DESIGN.md heading: "## 7. The hot
// path as built" is section 7, "### 13.1 Durability and recovery" 13.1.
var designHeading = regexp.MustCompile(`(?m)^#{2,4} (\d+(?:\.\d+)*)[.\s]`)

// designRef matches a pointer into DESIGN.md: the file name, then "§"
// or the word "section" and a number such as 7 or 7.5, also where a
// line break, a comment marker or a parenthesis falls between them.
var designRef = regexp.MustCompile(`DESIGN\.md(?:[\s*(#]|//)*(?:§\s*|section\s+)(\d+(?:\.\d+)?)`)

func designRefs(text string) []string {
	var out []string
	for _, m := range designRef.FindAllStringSubmatch(text, -1) {
		out = append(out, m[1])
	}
	return out
}

// TestDesignRefPattern builds its sample text from pieces, so that this
// file cites no section itself.
func TestDesignRefPattern(t *testing.T) {
	d := "DESIGN" + ".md"
	got := designRefs("see " + d + " §23. And " + d + "\n// §7.4, (" + d + "\n  §13.2), " +
		d + " section 12; " + d + "'s §4 and §9")
	if want := []string{"23", "7.4", "13.2", "12"}; !reflect.DeepEqual(got, want) {
		t.Errorf("designRefs = %q, want %q", got, want)
	}
}

// TestDesignSectionReferences: every DESIGN.md section cited in a Go
// file, a Markdown document, the Makefile or the CI workflow names a
// heading DESIGN.md has, so renumbering its sections cannot leave a
// pointer behind. CHANGES.md is a dated log and cites sections as they
// were numbered when each line was written.
func TestDesignSectionReferences(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	if !sections["1"] || !sections["7"] {
		t.Fatalf("DESIGN.md headings not recognised: %v", sections)
	}

	refs := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		cited := strings.HasSuffix(name, ".go") || strings.HasSuffix(name, ".md") ||
			path == "Makefile" || filepath.Dir(path) == filepath.Join(".github", "workflows")
		if !cited || path == "CHANGES.md" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range designRef.FindAllSubmatchIndex(b, -1) {
			refs++
			if sec := string(b[m[2]:m[3]]); !sections[sec] {
				line := 1 + strings.Count(string(b[:m[0]]), "\n")
				t.Errorf("%s:%d cites DESIGN.md §%s, which has no such heading", path, line, sec)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs < 20 {
		t.Errorf("found only %d DESIGN.md section references; the walk missed files", refs)
	}
}
