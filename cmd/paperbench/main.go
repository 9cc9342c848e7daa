// Command paperbench regenerates the paper's tables and figures.
//
// Text mode prints paper-style tables; csv/json modes emit
// machine-readable per-cell records (plus CCDF series for the
// latency-distribution figures) for external plotting. Scorecard mode
// runs the selected campaigns at three seed families and writes one
// verdict per paper claim (SCORECARD.csv, experiment.Claims).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strings"
	"syscall"

	"mptcplab/internal/cli"
	"mptcplab/internal/experiment"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

var run = cli.Main("paperbench", parse, bench)

// experimentHelp renders the -experiment usage line from the registry.
func experimentHelp() string {
	var b strings.Builder
	b.WriteString("comma-separated campaign names or aliases, or all:")
	for _, c := range experiment.Campaigns() {
		b.WriteString(" " + c.Name)
		if len(c.Aliases) > 0 {
			b.WriteString(" (" + strings.Join(c.Aliases, ", ") + ")")
		}
	}
	return b.String()
}

// spec is one invocation: the campaigns, the options they all run
// under, and where the report and the profiles go.
type spec struct {
	campaigns []experiment.Campaign
	opts      experiment.CampaignOpts
	format    string // text | csv | json | scorecard
	out       string
	progress  bool

	cpuprofile, memprofile, trace string
}

// parse is the flag → spec seam (internal/cli): it runs nothing.
func parse(args []string, stdout io.Writer) (spec, error) {
	s := spec{format: "text"}
	s.opts.SampleProfiles = true
	s.campaigns, _ = experiment.ParseCampaigns("all")
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	cli.Var(fs, "experiment", experimentHelp(), &s.campaigns, experiment.ParseCampaigns)
	fs.IntVar(&s.opts.Reps, "reps", 5, "repetitions per configuration cell")
	fs.Int64Var(&s.opts.Seed, "seed", 1, "campaign seed")
	fs.IntVar(&s.opts.Workers, "workers", 0, "parallel campaign workers (0 = all CPUs, 1 = serial); results are identical for any value")
	fs.Func("format", "output format: text | csv | json | scorecard (default text); scorecard scores the paper's claims at seeds seed, seed+1 and seed+2", func(v string) error {
		if s.format = v; v != "text" && v != "csv" && v != "json" && v != "scorecard" {
			return errors.New("want text, csv, json or scorecard")
		}
		return nil
	})
	fs.StringVar(&s.out, "o", "", "write output to file instead of stdout")
	fs.BoolVar(&s.progress, "progress", false, "print run progress to stderr")
	fs.StringVar(&s.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	fs.StringVar(&s.memprofile, "memprofile", "", "write an allocation profile to this file at exit")
	fs.StringVar(&s.trace, "trace", "", "write a runtime execution trace to this file (inspect with go tool trace)")
	if err := cli.Parse(fs, args, stdout); err != nil {
		return s, err
	}
	return s, s.opts.Validate()
}

// bench runs the spec's campaigns and writes the report; failed runs
// are an error, after everything that ran is reported.
func bench(s spec, stdout, stderr io.Writer) error {
	if s.cpuprofile != "" {
		f, err := os.Create(s.cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if s.trace != "" {
		f, err := os.Create(s.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	if s.memprofile != "" {
		defer func() {
			f, err := os.Create(s.memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap so the profile shows retained objects accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "paperbench:", err)
			}
		}()
	}

	// Ctrl-C / SIGTERM drains the campaign workers and still emits
	// whatever cells completed; a second signal kills the process.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	s.opts.Context = ctx
	if s.progress {
		s.opts.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	w := stdout
	if s.out != "" {
		f, err := os.Create(s.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	if s.format == "scorecard" {
		scores, err := experiment.Scorecard(s.campaigns, s.opts)
		if err != nil {
			return err
		}
		return experiment.WriteScorecard(w, scores)
	}

	// speedline summarizes a campaign's host-side performance:
	// aggregate busy time over wall time approximates the speedup the
	// worker pool delivered, events/sec is the simulator's throughput,
	// and allocs/run and MB/run are the heap-allocation cost of one
	// download in objects and bytes (the pooled hot path keeps the first
	// O(window), not O(packets); a per-packet series costs the second
	// one write, one copy and its share of the pooled sample, DESIGN.md
	// §7.5). In text mode
	// it lands in the report; otherwise on stderr so csv/json stay
	// machine-readable.
	speedline := func(m *experiment.Matrix, allocs, bytes uint64) {
		dst := stderr
		if s.format == "text" {
			dst = w
		}
		speedup := 1.0
		if m.WallTime > 0 {
			speedup = m.BusyTime.Seconds() / m.WallTime.Seconds()
		}
		runs := 0
		for _, row := range m.Rows {
			for _, c := range row.Cells {
				runs += c.Times.N() + c.Failures
			}
		}
		var evRate, allocsPerRun, mbPerRun float64
		if m.WallTime > 0 {
			evRate = float64(m.TotalEvents) / m.WallTime.Seconds()
		}
		if runs > 0 {
			allocsPerRun = float64(allocs) / float64(runs)
			mbPerRun = float64(bytes) / 1e6 / float64(runs)
		}
		fmt.Fprintf(dst, "%s: wall %.2fs, aggregate run time %.2fs, %d workers (%.2fx speedup), %.2fM events/sec, %.0f allocs/run, %.2f MB/run\n",
			m.ID, m.WallTime.Seconds(), m.BusyTime.Seconds(), m.Workers, speedup, evRate/1e6, allocsPerRun, mbPerRun)
	}

	var matrices []*experiment.Matrix
	cancelled, failed := false, 0
	for _, c := range s.campaigns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := c.Make(s.opts)
		runtime.ReadMemStats(&after)
		matrices = append(matrices, m)
		if s.format == "text" {
			c.Text(w, m)
		}
		speedline(m, after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc)
		if m.FailedRuns > 0 {
			failed += m.FailedRuns
			fmt.Fprintf(stderr, "%s: %d FAILED RUNS, first: %s\n", m.ID, m.FailedRuns, m.FirstFailure)
		}
		if m.Cancelled {
			cancelled = true
			fmt.Fprintf(stderr, "%s: cancelled — emitting partial results\n", m.ID)
			break
		}
	}
	stopSignals()

	var err error
	switch s.format {
	case "text":
		fmt.Fprintln(w, "\ndone.")
	case "csv":
		err = experiment.WriteCSV(w, matrices...)
	case "json":
		err = experiment.WriteReportJSON(w, matrices...)
	}
	switch {
	case err != nil:
		return err
	case failed > 0:
		return fmt.Errorf("%d runs failed", failed)
	case cancelled:
		return context.Canceled
	}
	return nil
}
