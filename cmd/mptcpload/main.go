// Command mptcpload runs fleet-scale load campaigns: hundreds to
// thousands of concurrent TCP and MPTCP flows sharing one WiFi AP and
// one cellular sector inside a single deterministic simulation, swept
// over arrival rates and fleet sizes. Exports are a pure function of
// the seed — byte-identical for any -workers value — and every row
// carries a replay token that mptcpsim re-executes standalone:
//
//	mptcpload -rates 2,5,10 -clients 200 -reps 3 -seed 42 -o sweep.csv
//	mptcpsim -replay 'clients=200,rate=5,dur=1m0s,...,seed=7331'
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcplab/internal/cli"
	"mptcplab/internal/load"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("mptcpload", parse, sweep)

// spec is one invocation: the sweep and where its exports go.
type spec struct {
	sweep       load.SweepOpts
	format      string // csv | json; empty = by the path's extension
	out, resOut string
	progress    bool
}

// parse is the flag → spec seam (internal/cli): it runs nothing. A flag
// the flag package cannot parse itself goes through load.Config.Set
// under its replay-token key — the token grammar is the load spec.
func parse(args []string, stdout io.Writer) (spec, error) {
	var s spec
	o, base := &s.sweep, &s.sweep.Base
	base.WiFi, base.Cell = pathmodel.CoffeeShop(), pathmodel.ATT()
	fs := flag.NewFlagSet("mptcpload", flag.ContinueOnError)
	set := func(name, key, usage string) {
		fs.Func(name, usage, func(v string) error { return base.Set(key, v) })
	}
	fs.IntVar(&base.Clients, "clients", 100, "fleet size (clients sharing the bottlenecks)")
	fs.Func("fleets", "comma list of fleet sizes to sweep (overrides -clients)", cli.List(&o.Clients, strconv.Atoi))
	fs.Float64Var(&base.Rate, "rate", 0, "open-loop Poisson arrival rate, flows per simulated second")
	fs.Func("rates", "comma list of arrival rates to sweep (overrides -rate)",
		cli.List(&o.Rates, func(v string) (float64, error) { return strconv.ParseFloat(v, 64) }))
	fs.IntVar(&base.Flows, "flows", 0, "exact open-loop flow count (Poisson-conditioned arrivals)")
	fs.IntVar(&base.Sessions, "sessions", 0, "closed-loop sessions (request, download, think, repeat)")
	set("think", "think", "closed-loop mean think time (default 2s)")
	set("duration", "dur", "arrival window, simulated (default 1m0s)")
	set("drain", "drain", "extra simulated time for in-flight transfers (default 30s)")
	set("mix", "mix", "flow size distribution: small | web | heavy | <size> (default small)")
	set("transport", "transport", "per-flow stack: mptcp | wifi | cell | wifi=0.3,cell=0.2,mptcp=0.5 (default mptcp)")
	fs.StringVar(&base.Controller, "cc", "", "MPTCP coupling: coupled (default) | olia | reno")
	cli.Scheduler(fs, "scheduler", &base.Scheduler)
	cli.Profiles(fs, &base.WiFi, &base.Cell)
	fs.BoolVar(&base.SampleProfiles, "sample", false, "sample per-run link-parameter variation from the seed")
	set("bg", "bg", "background cross-traffic, e.g. wd=8Mbps,wu=1Mbps,cd=2Mbps,cu=256Kbps")
	fs.IntVar(&o.Reps, "reps", 1, "repetitions per grid point")
	fs.Int64Var(&o.Seed, "seed", 1, "campaign seed (per-run seeds derive from it)")
	fs.IntVar(&o.Workers, "workers", 0, "parallel runs (0 = GOMAXPROCS, 1 = serial); exports identical either way")
	fs.BoolVar(&base.SelfCheck, "selfcheck", true, "arm the protocol invariant checker on every run")
	fs.Func("format", "export format: csv | json (default: from the output path's extension, else csv)", func(v string) error {
		if s.format = strings.ToLower(v); s.format != "csv" && s.format != "json" {
			return errors.New("want csv or json")
		}
		return nil
	})
	fs.StringVar(&s.out, "o", "-", "output path ('-' = stdout)")
	fs.BoolVar(&s.progress, "progress", false, "print per-run progress to stderr")
	set("chaos", "chaos", "fault schedule: preset (outage|flap|storm|ramp|fade) or spec like 'flap:path=wifi;at=2s;dur=500ms;every=2s;n=5'")
	fs.DurationVar(&base.Deadline, "deadline", 0, "wall-clock budget per run; a run over budget is killed and exported as failed (0 = none)")
	fs.StringVar(&s.resOut, "res-out", "", "also write the per-run resilience report (CSV or JSON by extension) — chaos runs only")
	if err := cli.Parse(fs, args, stdout); err != nil {
		return s, err
	}
	if s.resOut != "" && base.Chaos.Empty() {
		return s, errors.New("-res-out needs a fault schedule; pass -chaos")
	}
	return s, o.Validate()
}

// sweep runs the spec and writes its exports; failed runs and protocol
// violations are an error, after everything that ran is exported.
func sweep(s spec, stdout, stderr io.Writer) error {
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	s.sweep.Context = ctx
	if s.progress {
		s.sweep.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\rrun %d/%d", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	sw := load.RunSweep(s.sweep)
	stopSignals() // a second Ctrl-C past this point kills the process outright
	fmt.Fprintf(stderr, "%s: %s wall (%s busy, %d workers), %s events\n",
		sw.Describe(), sw.WallTime.Round(time.Millisecond),
		sw.BusyTime.Round(time.Millisecond), sw.Workers, units.Commas(sw.TotalEvents))
	if sw.Cancelled {
		fmt.Fprintln(stderr, "cancelled — exporting partial results")
	}

	if err := s.export(s.out, stdout, sw.WriteCSV, sw.WriteJSON); err != nil {
		return err
	}
	if s.resOut != "" {
		if err := s.export(s.resOut, stdout, sw.WriteResilienceCSV, sw.WriteResilienceJSON); err != nil {
			return err
		}
	}
	if sw.FailedRuns > 0 || sw.TotalViolations > 0 {
		return fmt.Errorf("%d failed runs (exported with fail_reason and replay token), %d protocol violations, first: %q",
			sw.FailedRuns, sw.TotalViolations, sw.FirstViolation)
	}
	if sw.Cancelled {
		return context.Canceled
	}
	return nil
}

// export writes one artifact to path ('-' = stdout) as -format says,
// or else as the path's extension does.
func (s spec) export(path string, stdout io.Writer, csv, json func(io.Writer, load.Config) error) error {
	write := csv
	if s.format == "json" || s.format == "" && strings.HasSuffix(path, ".json") {
		write = json
	}
	var b bytes.Buffer
	if err := write(&b, s.sweep.Base); err != nil {
		return err
	}
	if path == "" || path == "-" {
		_, err := stdout.Write(b.Bytes())
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o666)
}
