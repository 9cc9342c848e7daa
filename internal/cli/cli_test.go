package cli

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
)

type spec struct {
	n          int
	sched      string
	wifi, cell pathmodel.Profile
}

func parse(args []string, stdout io.Writer) (spec, error) {
	s := spec{wifi: pathmodel.CoffeeShop(), cell: pathmodel.ATT()}
	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	fs.IntVar(&s.n, "n", 1, "how many")
	Scheduler(fs, "sched", &s.sched)
	Profiles(fs, &s.wifi, &s.cell)
	if err := Parse(fs, args, stdout); err != nil {
		return s, err
	}
	if s.n < 0 {
		return s, fmt.Errorf("n=%d is negative", s.n)
	}
	return s, nil
}

// TestMainExitCodes pins the contract every binary inherits from Main:
// what parse refuses is exit 2, one "name: message" line on stderr,
// nothing on stdout and exec never called; -h is the usage on stdout
// and exit 0; an exec error is the same line and exit 1; a cancelled
// run is a silent 130.
func TestMainExitCodes(t *testing.T) {
	failed := errors.New("3 runs failed")
	for _, tc := range []struct {
		args   string
		exec   error
		code   int
		stderr string
	}{
		{"-n 2 -sched blest -wifi wifi -carrier verizon", nil, 0, ""},
		{"-n 2", failed, 1, "tool: 3 runs failed\n"},
		{"-n 2", fmt.Errorf("sweep: %w", context.Canceled), 130, ""},
		{"-n -2", nil, 2, "tool: n=-2 is negative\n"},
		{"-n two", nil, 2, "tool: invalid value \"two\" for flag -n: parse error\n"},
		{"-n", nil, 2, "tool: flag needs an argument: -n\n"},
		{"-x", nil, 2, "tool: flag provided but not defined: -x\n"},
		{"-n 2 extra", nil, 2, "tool: unexpected argument \"extra\"\n"},
		{"-wifi lan", nil, 2, "tool: invalid value \"lan\" for flag -wifi: pathmodel: unknown profile \"lan\"\n"},
		{"-h", nil, 0, ""},
	} {
		var stdout, stderr bytes.Buffer
		ran := false
		run := Main("tool", parse, func(s spec, stdout, _ io.Writer) error {
			ran = true
			fmt.Fprintf(stdout, "n=%d sched=%s %s+%s\n", s.n, s.sched, s.wifi.Name, s.cell.Name)
			return tc.exec
		})
		code := run(strings.Fields(tc.args), &stdout, &stderr)
		if code != tc.code || stderr.String() != tc.stderr {
			t.Errorf("%s: exit %d, stderr %q; want %d, %q", tc.args, code, stderr.String(), tc.code, tc.stderr)
		}
		if rejected := tc.code == 2 || tc.args == "-h"; ran == rejected {
			t.Errorf("%s: exec ran = %v", tc.args, ran)
		}
		switch {
		case tc.args == "-h":
			if !strings.HasPrefix(stdout.String(), "Usage of tool:\n") || !strings.Contains(stdout.String(), "-carrier") {
				t.Errorf("-h printed %q", stdout.String())
			}
		case tc.code == 2 && stdout.Len() != 0:
			t.Errorf("%s: rejected, yet stdout has %q", tc.args, stdout.String())
		case tc.code == 0 && stdout.String() != "n=2 sched=blest wifi+verizon\n":
			t.Errorf("%s: spec reached exec as %q", tc.args, stdout.String())
		}
	}
}

// TestSchedulerFlag: the flag checks its value as it is parsed, and its
// help names every registered scheduler without a list of its own.
func TestSchedulerFlag(t *testing.T) {
	var stdout bytes.Buffer
	if _, err := parse([]string{"-h"}, &stdout); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v", err)
	}
	for _, name := range mptcp.SchedulerNames() {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-sched help does not list %s:\n%s", name, stdout.String())
		}
		if s, err := parse([]string{"-sched", name}, io.Discard); err != nil || s.sched != name {
			t.Errorf("-sched %s bound %q, %v", name, s.sched, err)
		}
	}
	for _, bad := range []string{"bogus", "weighted:3;oops", "minrtt:1"} {
		if _, err := parse([]string{"-sched", bad}, io.Discard); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("-sched %s: error %v does not name it", bad, err)
		}
	}
}

// TestRepoCommandLines reads a fixture repo: single quotes, \
// continuations, the Makefile's variables, comments, redirections and
// inline backticks; placeholder and $(command) lines are skipped, and a
// binary cmd/ does not hold is an error.
func TestRepoCommandLines(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(root, name)), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("cmd/tool/main.go", "package main\n")
	write("cmd/other/main.go", "package main\n")
	write("README.md", "go run ./cmd/tool -a 'x y;z' -b \\\n    -c 1  # comment\n"+
		"go run ./cmd/other -x\nsee `go run ./cmd/tool -d` for more, or `<that>`\n")
	write("EXPERIMENTS.md", "go run ./cmd/tool -replay '<token>'\n$ go run ./cmd/tool -e > out.txt\n")
	write("DESIGN.md", "no command here: ./cmd/tool -f\n")
	write("Makefile", "FLAGS := -g 'p q' \\\n\t-h\n\t$(GO) run ./cmd/tool $(FLAGS) -i | cat\n"+
		"\t$(GO) run ./cmd/tool -j \"$$(sed 1q x)\"\n")
	got, err := RepoCommandLines(root, "tool")
	want := [][]string{{"-a", "x y;z", "-b", "-c", "1"}, {"-d"}, {"-e"}, {"-g", "p q", "-h", "-i"}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("got %q, %v; want %q", got, err, want)
	}
	write("DESIGN.md", "go run ./cmd/gone -f\n")
	if _, err := RepoCommandLines(root, "tool"); err == nil || !strings.Contains(err.Error(), "./cmd/gone") {
		t.Errorf("a retired binary: %v", err)
	}
}

// TestList: a comma list replaces the slice, each element trimmed; a
// bad element is the flag's error.
func TestList(t *testing.T) {
	xs := []int{9}
	set := List(&xs, strconv.Atoi)
	if err := set("1, 2,3"); err != nil || !reflect.DeepEqual(xs, []int{1, 2, 3}) {
		t.Errorf("bound %v, %v", xs, err)
	}
	if err := set("1,x"); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("1,x: %v", err)
	}
}
