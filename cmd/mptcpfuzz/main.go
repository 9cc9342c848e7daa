// Command mptcpfuzz is the deterministic adversarial scenario fuzzer:
// it generates seeded scenarios — randomized path characteristics plus
// a script of chaos events (mid-flow outages, loss bursts,
// duplication/reordering windows, address churn as one-cycle storms,
// and handover storms as flaps) armed exactly as a campaign's schedule
// is — and runs each with the protocol invariant checker and the
// livelock watchdog armed. On a violation it shrinks the fault script
// to a minimal reproducer and prints a one-line replay token;
// `mptcpsim -replay seed:mask[:sched]` re-runs exactly that case,
// under exactly that scheduler plugin. -v prints every scenario, each
// active fault as its chaos spec clause.
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
// under sched.
type spec struct {
	n       int
	seed    int64
	sched   string
	verbose bool
}

// parse is the flag → spec seam (internal/cli): it runs nothing.
func parse(args []string, stdout io.Writer) (spec, error) {
	var s spec
	fs := flag.NewFlagSet("mptcpfuzz", flag.ContinueOnError)
	fs.IntVar(&s.n, "n", 100, "number of scenarios to run")
	fs.Int64Var(&s.seed, "seed", 1, "base seed; case i runs GenScenario(seed+i)")
	cli.Scheduler(fs, "sched", &s.sched)
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
	failures := 0
	for i := 0; i < s.n; i++ {
		sc := check.GenScenario(s.seed + int64(i))
		sc.Scheduler = s.sched
		rep := check.RunScenario(sc, nil)
		if rep.Ok() {
			if s.verbose {
				rep.WriteText(w)
			}
			continue
		}
		failures++
		fmt.Fprintf(w, "FAIL seed=%d: %d violation(s)\n", sc.Seed, rep.Count)
		min := check.Shrink(sc, func(s check.Scenario) check.Report {
			return check.RunScenario(s, nil)
		})
		minRep := check.RunScenario(min, nil)
		minRep.WriteText(w)
		fmt.Fprintf(w, "  replay: mptcpsim -replay %s\n", min.Replay())
	}
	if failures > 0 {
		return fmt.Errorf("%d/%d scenarios violated invariants", failures, s.n)
	}
	fmt.Fprintf(w, "ok: %d scenarios, 0 violations\n", s.n)
	return nil
}
