package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	runLine     = regexp.MustCompile("(?:^|[\\s`])(?:go|\\$\\(GO\\)) run \\./cmd/([a-z]+)(.*)")
	makeVar     = regexp.MustCompile(`(?m)^([A-Z_]+) [:?]= (.*)$`)
	makeRef     = regexp.MustCompile(`\$\(([A-Z_]+)\)`)
	placeholder = regexp.MustCompile(`<[^>]*>`)
	shellWord   = regexp.MustCompile(`(?:'[^']*'|[^\s'])+`)
)

// RepoCommandLines returns the arguments of every `go run ./cmd/<bin>`
// line in root's README.md, EXPERIMENTS.md, DESIGN.md and Makefile
// (there `$(GO) run`, with the Makefile's variables expanded). A
// trailing \ continues a line; words split as the shell splits them
// under single quotes, and a command ends at a closing backtick, a
// #comment, a redirection, a pipe or a separator. A line left holding
// a <placeholder> or a $(command) is skipped. A line that runs a binary
// root/cmd does not hold is an error, so a retired one cannot linger.
func RepoCommandLines(root, bin string) ([][]string, error) {
	var lines [][]string
	for _, doc := range []string{"README.md", "EXPERIMENTS.md", "DESIGN.md", "Makefile"} {
		b, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		text := strings.ReplaceAll(string(b), "\\\n", " ")
		vars := map[string]string{}
		if doc == "Makefile" {
			for _, m := range makeVar.FindAllStringSubmatch(text, -1) {
				vars[m[1]] = m[2]
			}
		}
		for _, line := range strings.Split(text, "\n") {
			m := runLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if _, err := os.Stat(filepath.Join(root, "cmd", m[1])); err != nil {
				return nil, fmt.Errorf("%s: %q runs a binary cmd/ does not hold", doc, strings.TrimSpace(line))
			}
			rest, _, _ := strings.Cut(m[2], "`")
			rest = makeRef.ReplaceAllStringFunc(rest, func(ref string) string {
				if v, ok := vars[ref[2:len(ref)-1]]; ok {
					return v
				}
				return ref
			})
			if m[1] != bin || placeholder.MatchString(rest) || strings.Contains(rest, "$(") {
				continue
			}
			var args []string
			for _, w := range shellWord.FindAllString(rest, -1) {
				if strings.ContainsRune("#>|;&", rune(w[0])) {
					break
				}
				args = append(args, strings.ReplaceAll(w, "'", ""))
			}
			lines = append(lines, args)
		}
	}
	return lines, nil
}
