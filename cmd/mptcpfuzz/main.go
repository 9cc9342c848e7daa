// Command mptcpfuzz is the deterministic adversarial scenario fuzzer:
// it generates seeded scenarios — randomized path characteristics plus
// a script of mid-flow outages, burst loss, duplication/reordering
// windows, address churn, and handover storms — and runs each with the
// protocol invariant checker armed. On a violation it shrinks the
// fault script to a minimal reproducer and prints a one-line replay
// token; `mptcpfuzz -replay seed:mask[:sched]` re-runs exactly that
// case, under exactly that scheduler plugin.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mptcplab/internal/check"
	"mptcplab/internal/cli"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("mptcpfuzz", parse, fuzz)

// spec is one invocation: a sweep of n generated scenarios from seed
// under sched, or the one scenario a replay token names.
type spec struct {
	n       int
	seed    int64
	sched   string
	replay  *check.Scenario
	verbose bool
}

// parse is the flag → spec seam (internal/cli): it runs nothing.
func parse(args []string, stdout io.Writer) (spec, error) {
	var s spec
	fs := flag.NewFlagSet("mptcpfuzz", flag.ContinueOnError)
	fs.IntVar(&s.n, "n", 100, "number of scenarios to run")
	fs.Int64Var(&s.seed, "seed", 1, "base seed; case i runs GenScenario(seed+i)")
	cli.Scheduler(fs, "sched", &s.sched)
	cli.Var(fs, "replay", "replay one scenario from a seed:mask[:sched] token", &s.replay,
		func(v string) (*check.Scenario, error) { sc, err := check.ParseReplay(v); return &sc, err })
	fs.BoolVar(&s.verbose, "v", false, "log every scenario, not just failures")
	if err := cli.Parse(fs, args, stdout); err != nil {
		return s, err
	}
	if s.n < 0 {
		return s, fmt.Errorf("-n %d: must not be negative", s.n)
	}
	return s, nil
}

// fuzz runs the spec's scenarios; any violation is an error, after its
// shrunk reproducer and replay token are on stdout.
func fuzz(s spec, w, _ io.Writer) error {
	if s.replay != nil {
		rep := check.RunScenario(*s.replay, nil)
		describe(w, rep, true)
		if !rep.Ok() {
			return fmt.Errorf("%d violation(s)", rep.Count)
		}
		return nil
	}

	failures := 0
	for i := 0; i < s.n; i++ {
		sc := check.GenScenario(s.seed + int64(i))
		sc.Scheduler = s.sched
		rep := check.RunScenario(sc, nil)
		if rep.Ok() {
			if s.verbose {
				describe(w, rep, false)
			}
			continue
		}
		failures++
		fmt.Fprintf(w, "FAIL seed=%d: %d violation(s)\n", sc.Seed, rep.Count)
		min := check.Shrink(sc, func(s check.Scenario) check.Report {
			return check.RunScenario(s, nil)
		})
		minRep := check.RunScenario(min, nil)
		describe(w, minRep, true)
		fmt.Fprintf(w, "  replay: mptcpfuzz -replay %s\n", min.Replay())
	}
	if failures > 0 {
		return fmt.Errorf("%d/%d scenarios violated invariants", failures, s.n)
	}
	fmt.Fprintf(w, "ok: %d scenarios, 0 violations\n", s.n)
	return nil
}

func describe(w io.Writer, rep check.Report, detail bool) {
	sc := rep.Scenario
	status := "ok"
	if !rep.Ok() {
		status = fmt.Sprintf("%d violation(s)", rep.Count)
	}
	done := "stalled"
	if rep.Completed {
		done = "completed"
	}
	fmt.Fprintf(w, "  seed=%d mask=%x size=%dKB paths=%d faults=%d: %s, %s, %d bytes delivered\n",
		sc.Seed, sc.Mask, sc.Size>>10, pathCount(sc), len(sc.ActiveFaults()), status, done, rep.Delivered)
	if detail {
		for _, f := range sc.ActiveFaults() {
			fmt.Fprintf(w, "    fault %v\n", f)
		}
		for _, viol := range rep.Violations {
			fmt.Fprintf(w, "    %v\n", viol)
		}
	}
}

func pathCount(sc check.Scenario) int {
	if sc.FourPaths {
		return 4
	}
	return 2
}
