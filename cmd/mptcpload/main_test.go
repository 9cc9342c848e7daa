package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRejectsBadSweeps re-executes the test binary as mptcpload with
// flag sets that must die at the boundary — before any sweep row runs:
// exit code 1, a single error line naming the bad value, no panic. A
// scheduler typo would otherwise sweep a grid under a fallback policy;
// a non-positive axis would export rows labelled with a value that
// never ran; an oversized fleet would panic inside every run.
func TestRejectsBadSweeps(t *testing.T) {
	if args := os.Getenv("MPTCPLOAD_RUN_MAIN"); args != "" {
		os.Args = append([]string{"mptcpload"}, strings.Fields(args)...)
		main()
		return
	}
	for args, want := range map[string]string{
		"-scheduler weighted:3;oops": `"weighted:3;oops"`,
		"-rates -3":                  "-3",
		"-fleets 999999":             "999999",
		"-fleets 20,-5":              "-5",
		"-reps -1":                   "-1",
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsBadSweeps$")
		cmd.Env = append(os.Environ(), "MPTCPLOAD_RUN_MAIN="+args)
		out, err := cmd.CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s: want the child to exit non-zero, got err=%v; output:\n%s", args, err, out)
		}
		if code := ee.ExitCode(); code != 1 {
			t.Fatalf("%s: exit code %d, want 1; output:\n%s", args, code, out)
		}
		text := strings.TrimSpace(string(out))
		if strings.Contains(text, "panic") {
			t.Fatalf("%s: validation panicked:\n%s", args, out)
		}
		if strings.Count(text, "\n") != 0 {
			t.Errorf("%s: want a one-line error, got:\n%s", args, out)
		}
		// mptcpload's exitOn prints the bare error (no binary prefix, the
		// convention throughout this CLI) — just require the bad value.
		if !strings.Contains(text, want) {
			t.Errorf("%s: error line %q should name %s", args, text, want)
		}
	}
}
