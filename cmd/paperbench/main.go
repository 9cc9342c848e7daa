// Command paperbench regenerates the paper's tables and figures.
//
// Text mode prints paper-style tables; csv/json modes emit
// machine-readable per-cell records (plus CCDF series for the
// latency-distribution figures) for external plotting.
package main

import (
	"context"
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

	"mptcplab/internal/experiment"
	"mptcplab/internal/units"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

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

// selectCampaigns resolves an -experiment value through the registry.
// The selection comes back in registry order whatever order it was
// named in; "all" stands for the entries marked InAll.
func selectCampaigns(which string) ([]experiment.Campaign, error) {
	sel := map[string]bool{}
	all := false
	for _, s := range strings.Split(which, ",") {
		if s = strings.TrimSpace(s); s == "all" {
			all = true
			continue
		}
		name := experiment.ResolveCampaign(s)
		if name == "" {
			return nil, fmt.Errorf("unknown experiment %q (have %s, all)",
				s, strings.Join(experiment.CampaignNames(), ", "))
		}
		sel[name] = true
	}
	var out []experiment.Campaign
	for _, c := range experiment.Campaigns() {
		if sel[c.Name] || all && c.InAll {
			out = append(out, c)
		}
	}
	return out, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("experiment", "all", experimentHelp())
		reps    = fs.Int("reps", 5, "repetitions per configuration cell")
		seed    = fs.Int64("seed", 1, "campaign seed")
		workers = fs.Int("workers", 0, "parallel campaign workers (0 = all CPUs, 1 = serial); results are identical for any value")
		quick   = fs.Bool("quick", false, "scale the infinite-backlog size down for fast runs")
		format  = fs.String("format", "text", "output format: text | csv | json")
		outp    = fs.String("o", "", "write output to file instead of stdout")
		prog    = fs.Bool("progress", false, "print run progress to stderr")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file at exit")
		tracefile  = fs.String("trace", "", "write a runtime execution trace to this file (inspect with go tool trace)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "paperbench:", err)
		return code
	}
	campaigns, err := selectCampaigns(*which)
	if err != nil {
		return fail(2, err)
	}
	switch *format {
	case "text", "csv", "json":
	default:
		return fail(2, fmt.Errorf("unknown format %q", *format))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(1, err)
		}
		defer pprof.StopCPUProfile()
	}
	if *tracefile != "" {
		f, err := os.Create(*tracefile)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return fail(1, err)
		}
		defer rtrace.Stop()
	}
	if *memprofile != "" {
		path := *memprofile
		defer func() {
			f, err := os.Create(path)
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

	opts := experiment.CampaignOpts{
		Reps: *reps, Seed: *seed, SampleProfiles: true, Workers: *workers,
		Context: ctx,
	}
	if *prog {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(stderr, "\r%d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(stderr)
			}
		}
	}

	w := stdout
	if *outp != "" {
		f, err := os.Create(*outp)
		if err != nil {
			return fail(1, err)
		}
		defer f.Close()
		w = f
	}

	// speedline summarizes a campaign's host-side performance:
	// aggregate busy time over wall time approximates the speedup the
	// worker pool delivered, events/sec is the simulator's throughput,
	// and allocs/run is the heap-allocation cost of one download (the
	// pooled hot path keeps it O(window), not O(packets)). In text mode
	// it lands in the report; otherwise on stderr so csv/json stay
	// machine-readable.
	speedline := func(m *experiment.Matrix, allocs uint64) {
		dst := stderr
		if *format == "text" {
			dst = w
		}
		speedup := 1.0
		if m.WallTime > 0 {
			speedup = m.BusyTime.Seconds() / m.WallTime.Seconds()
		}
		runs := 0
		for _, e := range m.Export() {
			runs += e.N + e.Failures
		}
		var evRate, allocsPerRun float64
		if m.WallTime > 0 {
			evRate = float64(m.TotalEvents) / m.WallTime.Seconds()
		}
		if runs > 0 {
			allocsPerRun = float64(allocs) / float64(runs)
		}
		fmt.Fprintf(dst, "%s: wall %.2fs, aggregate run time %.2fs, %d workers (%.2fx speedup), %.2fM events/sec, %.0f allocs/run\n",
			m.ID, m.WallTime.Seconds(), m.BusyTime.Seconds(), m.Workers, speedup, evRate/1e6, allocsPerRun)
	}

	var matrices []*experiment.Matrix
	cancelled := false
	for _, c := range campaigns {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var m *experiment.Matrix
		if *quick && c.Name == "fig11" {
			m = experiment.Backlog(64*units.MB, opts)
		} else {
			m = c.Make(opts)
		}
		runtime.ReadMemStats(&after)
		matrices = append(matrices, m)
		if *format == "text" {
			c.Text(w, m)
		}
		speedline(m, after.Mallocs-before.Mallocs)
		if m.FailedRuns > 0 {
			fmt.Fprintf(stderr, "%s: %d FAILED RUNS, first: %s\n", m.ID, m.FailedRuns, m.FirstFailure)
		}
		if m.Cancelled {
			cancelled = true
			fmt.Fprintf(stderr, "%s: cancelled — emitting partial results\n", m.ID)
			break
		}
	}
	stopSignals()

	switch *format {
	case "text":
		fmt.Fprintln(w, "\ndone.")
	case "csv":
		err = experiment.WriteCSV(w, matrices...)
	case "json":
		err = experiment.WriteReportJSON(w, matrices...)
	}
	if err != nil {
		return fail(1, err)
	}
	if cancelled {
		return 130
	}
	return 0
}
