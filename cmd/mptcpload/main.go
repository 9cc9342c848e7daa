// Command mptcpload runs fleet-scale load campaigns: hundreds to
// thousands of concurrent TCP and MPTCP flows sharing one WiFi AP and
// one cellular sector inside a single deterministic simulation, swept
// over arrival rates and fleet sizes. Exports are a pure function of
// the seed — byte-identical for any -workers value — and every row
// carries a replay token that re-executes that one run standalone:
//
//	mptcpload -rates 2,5,10 -clients 200 -reps 3 -seed 42 -o sweep.csv
//	mptcpload -replay 'clients=200,rate=5,dur=1m0s,...,seed=7331'
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mptcplab/internal/chaos"
	"mptcplab/internal/load"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

func main() {
	var (
		clients   = flag.Int("clients", 100, "fleet size (clients sharing the bottlenecks)")
		fleets    = flag.String("fleets", "", "comma list of fleet sizes to sweep (overrides -clients)")
		rate      = flag.Float64("rate", 0, "open-loop Poisson arrival rate, flows per simulated second")
		rates     = flag.String("rates", "", "comma list of arrival rates to sweep (overrides -rate)")
		flows     = flag.Int("flows", 0, "exact open-loop flow count (Poisson-conditioned arrivals)")
		sessions  = flag.Int("sessions", 0, "closed-loop sessions (request, download, think, repeat)")
		think     = flag.Duration("think", 2*time.Second, "closed-loop mean think time")
		duration  = flag.Duration("duration", 60*time.Second, "arrival window (simulated)")
		drain     = flag.Duration("drain", 30*time.Second, "extra simulated time for in-flight transfers")
		mix       = flag.String("mix", "small", "flow size distribution: small | web | heavy | <size>")
		transport = flag.String("transport", "mptcp", "per-flow stack: mptcp | wifi | cell | wifi=0.3,cell=0.2,mptcp=0.5")
		cc        = flag.String("cc", "", "MPTCP coupling: coupled (default) | olia | reno")
		scheduler = flag.String("scheduler", "", "MPTCP scheduler plugin: minrtt (default) | roundrobin | weighted[:w0;w1;...] | redundant | blest | adaptive | backup")
		wifiProf  = flag.String("wifi", "coffeeshop", "WiFi profile: coffeeshop | wifi")
		carrier   = flag.String("carrier", "att", "cellular profile: att | verizon | sprint")
		sample    = flag.Bool("sample", false, "sample per-run link-parameter variation from the seed")
		bg        = flag.String("bg", "", "background cross-traffic, e.g. wd=8Mbps,wu=1Mbps,cd=2Mbps,cu=256Kbps")
		reps      = flag.Int("reps", 1, "repetitions per grid point")
		seed      = flag.Int64("seed", 1, "campaign seed (per-run seeds derive from it)")
		workers   = flag.Int("workers", 0, "parallel runs (0 = GOMAXPROCS, 1 = serial); exports identical either way")
		selfCheck = flag.Bool("selfcheck", true, "arm the protocol invariant checker on every run")
		format    = flag.String("format", "", "export format: csv | json (default: from -o extension, else csv)")
		out       = flag.String("o", "-", "output path ('-' = stdout)")
		progress  = flag.Bool("progress", false, "print per-run progress to stderr")
		replay    = flag.String("replay", "", "re-execute one run from an exported replay token and print its summary")
		chaosSpec = flag.String("chaos", "", "fault schedule: preset (outage|flap|storm|ramp|fade) or spec like 'flap:path=wifi;at=2s;dur=500ms;every=2s;n=5'")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget per run; a run over budget is killed and exported as failed (0 = none)")
		resOut    = flag.String("res-out", "", "also write the per-run resilience report (CSV or JSON by extension) — chaos runs only")
	)
	flag.Parse()

	if *replay != "" {
		os.Exit(runReplay(os.Stdout, os.Stderr, *replay, *wifiProf, *carrier, *deadline))
	}

	base := load.Config{
		Clients:        *clients,
		Rate:           *rate,
		Flows:          *flows,
		Sessions:       *sessions,
		ThinkMean:      sim.Time(*think),
		Duration:       sim.Time(*duration),
		Drain:          sim.Time(*drain),
		Controller:     *cc,
		Scheduler:      *scheduler,
		SampleProfiles: *sample,
		SelfCheck:      *selfCheck,
	}
	applyProfiles(&base, *wifiProf, *carrier)

	var err error
	base.Sizes, err = load.ParseSizeDist(*mix)
	exitOn(err)
	base.Transports, err = load.ParseTransportMix(*transport)
	exitOn(err)
	base.Background, err = parseBackground(*bg)
	exitOn(err)
	base.Chaos, err = chaos.Parse(*chaosSpec)
	exitOn(err)
	base.Deadline = *deadline

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	opts := load.SweepOpts{
		Context: ctx,
		Base:    base,
		Rates:   parseFloats(*rates),
		Clients: parseInts(*fleets),
		Reps:    *reps,
		Seed:    *seed,
		Workers: *workers,
	}
	// A bad axis or scheduler typo must die here with a one-line error,
	// not sweep a grid of failed or mislabelled rows.
	exitOn(opts.Validate())
	if *progress {
		opts.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rrun %d/%d", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	sw := load.RunSweep(opts)
	stopSignals() // a second Ctrl-C past this point kills the process outright
	fmt.Fprintf(os.Stderr, "%s: %s wall (%s busy, %d workers), %s events\n",
		sw.Describe(), sw.WallTime.Round(time.Millisecond),
		sw.BusyTime.Round(time.Millisecond), sw.Workers, withCommas(sw.TotalEvents))
	if sw.Cancelled {
		fmt.Fprintln(os.Stderr, "cancelled — exporting partial results")
	}
	if sw.FailedRuns > 0 {
		fmt.Fprintf(os.Stderr, "FAILED RUNS: %d (exported with fail_reason and replay token)\n", sw.FailedRuns)
	}
	if sw.TotalViolations > 0 {
		fmt.Fprintf(os.Stderr, "PROTOCOL VIOLATIONS: %d, first: %s\n",
			sw.TotalViolations, sw.FirstViolation)
	}

	w, closer, err := openOut(*out)
	exitOn(err)
	switch resolveFormat(*format, *out) {
	case "json":
		err = sw.WriteJSON(w, base)
	default:
		err = sw.WriteCSV(w, base)
	}
	if closer != nil {
		closer()
	}
	exitOn(err)

	if *resOut != "" {
		if base.Chaos.Empty() {
			exitOn(fmt.Errorf("-res-out needs a fault schedule; pass -chaos"))
		}
		rw, rcloser, err := openOut(*resOut)
		exitOn(err)
		switch resolveFormat(*format, *resOut) {
		case "json":
			err = sw.WriteResilienceJSON(rw, base)
		default:
			err = sw.WriteResilienceCSV(rw, base)
		}
		if rcloser != nil {
			rcloser()
		}
		exitOn(err)
	}
	if sw.TotalViolations > 0 || sw.FailedRuns > 0 {
		os.Exit(1)
	}
}

// runReplay re-executes one exported run from its token and prints a
// human summary. All failures — malformed tokens included — come back
// as a one-line error and exit code 1, never a panic.
func runReplay(w, ew io.Writer, token, wifi, carrier string, deadline time.Duration) int {
	cfg, err := load.ParseReplay(token)
	if err != nil {
		fmt.Fprintf(ew, "bad replay token: %v\n", err)
		return 1
	}
	if err := resolveProfiles(&cfg, wifi, carrier); err != nil {
		fmt.Fprintln(ew, err)
		return 1
	}
	cfg.Deadline = deadline
	res := load.Run(cfg)
	printSummary(w, cfg, res)
	if res.Failed || res.Violations > 0 {
		return 1
	}
	return 0
}

// applyProfiles resolves named WiFi and cellular profiles into cfg.
func applyProfiles(cfg *load.Config, wifi, carrier string) {
	exitOn(resolveProfiles(cfg, wifi, carrier))
}

func resolveProfiles(cfg *load.Config, wifi, carrier string) error {
	wp, err := pathmodel.ByName(wifi)
	if err != nil {
		return err
	}
	cp, err := pathmodel.ByName(carrier)
	if err != nil {
		return err
	}
	cfg.WiFi, cfg.Cell = wp, cp
	return nil
}

// parseBackground reads a "wd=8Mbps,wu=1Mbps,cd=2Mbps,cu=256Kbps" spec;
// omitted directions stay silent.
func parseBackground(s string) (load.Background, error) {
	var b load.Background
	if strings.TrimSpace(s) == "" {
		return b, nil
	}
	for _, part := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return b, fmt.Errorf("bad background part %q (want dir=rate)", part)
		}
		r, err := units.ParseBitRate(v)
		if err != nil {
			return b, fmt.Errorf("background %q: %v", part, err)
		}
		switch strings.ToLower(k) {
		case "wd", "wifi-down":
			b.WiFiDown = r
		case "wu", "wifi-up":
			b.WiFiUp = r
		case "cd", "cell-down":
			b.CellDown = r
		case "cu", "cell-up":
			b.CellUp = r
		default:
			return b, fmt.Errorf("unknown background direction %q (want wd|wu|cd|cu)", k)
		}
	}
	return b, nil
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		exitOn(err)
		out = append(out, v)
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		exitOn(err)
		out = append(out, v)
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func resolveFormat(format, out string) string {
	if format != "" {
		return strings.ToLower(format)
	}
	if strings.HasSuffix(out, ".json") {
		return "json"
	}
	return "csv"
}

func openOut(path string) (io.Writer, func(), error) {
	if path == "" || path == "-" {
		return os.Stdout, nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

// printSummary renders one replayed run for a human.
func printSummary(w io.Writer, cfg load.Config, res *load.Result) {
	fmt.Fprintf(w, "replay:     %s\n", cfg.ReplayToken())
	fmt.Fprintf(w, "flows:      %d offered, %d started, %d completed, %d incomplete\n",
		res.Offered, res.Started, res.Completed, res.Incomplete)
	fmt.Fprintf(w, "fct:        p50 %.3fs  p90 %.3fs  p99 %.3fs  mean %.3fs  max %.3fs\n",
		res.FCTp50.Value(), res.FCTp90.Value(), res.FCTp99.Value(), res.FCT.Mean(), res.FCT.Max())
	fmt.Fprintf(w, "goodput:    mean %.2fMbps/flow, Jain %.3f over %d flows\n",
		res.Goodput.Mean()/float64(units.Mbps), res.Goodput.Jain(), res.Goodput.N())
	fmt.Fprintf(w, "cell share: %.1f%% of sender bytes\n", res.CellShare()*100)
	for _, l := range res.Links {
		fmt.Fprintf(w, "link %-9s %5.1f%% utilized, %d sent, %d queue drops, %d medium drops\n",
			l.Name+":", l.Utilization*100, l.Sent, l.QueueDrop, l.MediumDrop)
	}
	fmt.Fprintf(w, "sim:        %s events, %d violations\n", withCommas(res.Events), res.Violations)
	if res.Violations > 0 {
		fmt.Fprintf(w, "FIRST VIOLATION: %s\n", res.FirstViolation)
	}
	if res.Resilience != nil {
		printResilience(w, res)
	}
	if res.Failed {
		fmt.Fprintf(w, "RUN FAILED: %s\n", res.FailReason)
	}
}

// printResilience renders the chaos monitor's report for a human.
func printResilience(w io.Writer, res *load.Result) {
	r := res.Resilience
	fmt.Fprintf(w, "chaos:      %s\n", res.ChaosSpec)
	fmt.Fprintf(w, "verdicts:   %d ok, %d late, %d incomplete, %d stalled, %d aborted -> %s\n",
		r.OK, r.Late, r.Incomplete, r.Stalled, r.Aborted, r.Graceful())
	fmt.Fprintf(w, "stalls:     %d total, longest %.3fs; %d recoveries (TTR mean %.3fs max %.3fs), %d unrecovered\n",
		r.TotalStalls, float64(r.LongestStall)/float64(sim.Second),
		r.TTRAcc.N(), r.TTRAcc.Mean(), r.TTRAcc.Max(), r.Unrecovered)
	fmt.Fprintf(w, "goodput:    %.2fMbps during faults vs %.2fMbps steady; %d retries, %d timeouts\n",
		8*r.FaultGoodput()/float64(units.Mbps), 8*r.SteadyGoodput()/float64(units.Mbps),
		r.Retries, r.Timeouts)
}

// withCommas renders 1234567 as "1,234,567".
func withCommas(n uint64) string {
	s := strconv.FormatUint(n, 10)
	var b strings.Builder
	for i, r := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(r)
	}
	return b.String()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
