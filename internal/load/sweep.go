package load

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"

	"mptcplab/internal/cc"
	"mptcplab/internal/chaos"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sweep"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// SweepOpts describes a load-vs-FCT campaign: a grid of (arrival rate
// x fleet size) points, each repeated Reps times with independent
// deterministic seeds. The Base config supplies everything the grid
// axes don't override.
type SweepOpts struct {
	Base Config

	// Rates are the open-loop arrival rates swept (flows per simulated
	// second); empty means just Base's own rate/flow settings.
	Rates []float64
	// Clients are the fleet sizes swept; empty means just Base.Clients.
	Clients []int
	// Scheds are the packet schedulers swept ("minrtt", "roundrobin",
	// "weighted[:w0;w1]", "redundant", "backup"); empty means just
	// Base.Scheduler.
	Scheds []string

	// Reps per grid point (default 1).
	Reps int
	// Seed drives the whole sweep; per-run seeds derive from it.
	Seed int64
	// Workers sizes the run pool: 0 = GOMAXPROCS, 1 = serial. Exports
	// are byte-identical for every worker count.
	Workers int
	// Progress, if set, is called after each finished run. Calls are
	// serialized; only done increasing 1..total is guaranteed.
	Progress func(done, total int)

	// Context, when non-nil, cancels the sweep: workers finish the run
	// they are on, stop claiming new jobs, and RunSweep returns with
	// Sweep.Cancelled set and nil entries for the runs never executed —
	// exports skip those, so partial results survive a Ctrl-C.
	Context context.Context

	// Intercept, when non-nil, wraps every run, as
	// experiment.CampaignOpts.Intercept does: the callback returns
	// either run()'s row or one stored earlier for the same job.Config
	// (runs are pure functions of it, so sweep.Memo is sound). run
	// contains its own panic and returns the failed row. Called from
	// worker goroutines; must be safe for concurrent use.
	Intercept func(job SweepJob, run func() Row) Row
}

func (o SweepOpts) reps() int {
	if o.Reps <= 0 {
		return 1
	}
	return o.Reps
}

// SweepPoint is one (rate, clients, scheduler) grid point's
// repetitions. Sched empty means the Base config's scheduler.
type SweepPoint struct {
	Rate    float64
	Clients int
	Sched   string
	// Runs holds the live result of each executed repetition; an entry
	// is nil when the run never executed (cancellation) or when an
	// interceptor substituted its row.
	Runs []*Result
}

// SweepJob describes one run of a sweep: its grid position and the
// per-run Config (point axes applied, seed derived), which determines
// the run's Row up to the positional Rep label.
type SweepJob struct {
	Point, Rep int // indices into Sweep.Points and SweepPoint.Runs
	Config     Config
}

// Row is one run's export rows — the unit an interceptor caches. It
// round-trips through JSON exactly, so a substituted row reproduces
// the cold run's export bytes.
type Row struct {
	Run        RunExport         `json:"run"`
	Resilience *ResilienceExport `json:"resilience,omitempty"`
}

// Sweep is a completed campaign.
type Sweep struct {
	Points []SweepPoint

	// rows holds each executed run's Row in grid order (point-major,
	// rep-minor — the order every export walks); nil = never executed.
	rows []*Row

	// Execution metadata (excluded from exports, which must stay a
	// pure function of the seed). Cancelled means SweepOpts.Context
	// stopped the sweep early; unexecuted runs stay nil. TotalEvents
	// and FirstViolation cover executed runs only; a failed run still
	// has a row (failed=true).
	sweep.Stats
}

// idleWorlds keeps finished sweeps' worlds, Reset, for the next
// sweep's workers: at most GOMAXPROCS of them, each holding only warm
// pools.
var idleWorlds = sweep.NewIdle((*world.World).Reset)

// sweepSalt is the load sweep's historical shuffle salt; like the
// experiment runner's it must never change, since it determines the
// execution order equal seeds replay.
const sweepSalt = 0x10ad

// grid materializes the sweep's grid points in canonical order —
// rates outermost, then fleet sizes, then schedulers, exactly the
// order exports walk.
func (o SweepOpts) grid() []SweepPoint {
	rates := o.Rates
	if len(rates) == 0 {
		rates = []float64{o.Base.Rate}
	}
	fleets := o.Clients
	if len(fleets) == 0 {
		fleets = []int{o.Base.Clients}
	}
	scheds := o.Scheds
	if len(scheds) == 0 {
		scheds = []string{o.Base.Scheduler}
	}
	var points []SweepPoint
	for _, r := range rates {
		for _, c := range fleets {
			for _, sched := range scheds {
				points = append(points, SweepPoint{
					Rate: r, Clients: c, Sched: sched, Runs: make([]*Result, o.reps()),
				})
			}
		}
	}
	return points
}

// pointConfig specializes the base config to one grid point: the
// point's axes override the base. The per-run seed is not set here.
func pointConfig(base Config, p SweepPoint) Config {
	cfg := base
	if p.Rate > 0 {
		cfg.Rate = p.Rate
		cfg.Flows = 0 // rate axis overrides a fixed flow count
	}
	if p.Clients > 0 {
		cfg.Clients = p.Clients
	}
	if p.Sched != "" {
		cfg.Scheduler = p.Sched
	}
	return cfg
}

// runSeed derives the seed of one (point, rep) run: disjoint 21-bit
// index fields through the Splitmix64 bijection (see sweep.Seed).
func (o SweepOpts) runSeed(point, rep int) int64 {
	return sweep.Seed(o.Seed, point, rep)
}

// Validate rejects a sweep that would panic, wedge, or export rows
// labelled with an axis value that never ran (pointConfig reads a
// non-positive axis as "use the base"); every grid point's Config must
// itself validate — fleet bounds, scheduler names, the base.
func (o SweepOpts) Validate() error {
	if o.Reps < 0 {
		return fmt.Errorf("load: reps=%d is negative", o.Reps)
	}
	for _, r := range o.Rates {
		if !(r > 0) {
			return fmt.Errorf("load: swept rate %g must be positive", r)
		}
	}
	for _, c := range o.Clients {
		if c <= 0 {
			return fmt.Errorf("load: swept fleet size %d must be positive", c)
		}
	}
	for _, p := range o.grid() {
		if err := pointConfig(o.Base, p).Validate(); err != nil {
			return err
		}
	}
	return nil
}

// newRow flattens one run into the Row grid position (p, rep) exports.
// The replay token re-derives cfg, so any row can be re-executed
// standalone.
func newRow(p SweepPoint, rep int, cfg Config, res *Result) Row {
	token := cfg.ReplayToken()
	row := Row{Run: exportRun(p, rep, res, token)}
	if re, ok := exportResilience(p, rep, res, token); ok {
		row.Resilience = &re
	}
	return row
}

// RunRow executes one standalone run — a replay token's — and returns
// the row a one-point, one-rep sweep of it would export.
func RunRow(cfg Config) Row {
	p := SweepPoint{Rate: cfg.Rate, Clients: cfg.Clients, Sched: cfg.Scheduler}
	return newRow(p, 0, cfg, Run(cfg))
}

// RunSweep executes the grid on the generic sweep engine. Like the
// experiment campaign runner, the job list is shuffled before
// execution, fanned out to a worker pool, and absorbed in the fixed
// shuffled-list order — so every aggregate and export is
// byte-identical for any worker count.
func RunSweep(opts SweepOpts) *Sweep {
	sw := &Sweep{Points: opts.grid()}
	var jobs []SweepJob
	for pi, p := range sw.Points {
		for rep := 0; rep < opts.reps(); rep++ {
			cfg := pointConfig(opts.Base, p)
			cfg.Seed = opts.runSeed(pi, rep)
			jobs = append(jobs, SweepJob{Point: pi, Rep: rep, Config: cfg})
		}
	}
	sw.rows = make([]*Row, len(jobs))

	// Each job writes its live result into its own Runs slot; absorb
	// reads it after the engine's barrier.
	failed := func(k int, err error) Row {
		j := jobs[k]
		p := &sw.Points[j.Point]
		p.Runs[j.Rep] = failedRun(j.Config, err)
		return newRow(*p, j.Rep, j.Config, p.Runs[j.Rep])
	}
	st := sweep.RunFrom(idleWorlds, sweep.Opts{
		Seed:     opts.Seed,
		Salt:     sweepSalt,
		Workers:  opts.Workers,
		Progress: opts.Progress,
		Context:  opts.Context,
	}, len(jobs),
		// The worker's world is reused across its job stream and, through
		// idleWorlds, across sweeps (warm pools, byte-identical results);
		// after a contained panic it is discarded — it was left mid-run —
		// and the next job builds a fresh one.
		func(worker **world.World, k int) Row {
			j := jobs[k]
			p := &sw.Points[j.Point]
			run := func() Row {
				if *worker == nil {
					*worker = world.New()
				}
				p.Runs[j.Rep] = RunIn(*worker, j.Config)
				return newRow(*p, j.Rep, j.Config, p.Runs[j.Rep])
			}
			if opts.Intercept == nil {
				return run()
			}
			// An interceptor must see a failed run, so its run contains
			// the panic itself, exactly as the engine would have.
			return opts.Intercept(j, func() (row Row) {
				if err := sweep.Contain(func() { row = run() }); err != nil {
					*worker = nil
					row = failed(k, err)
				}
				return row
			})
		},
		failed,
		func(k int, row Row) {
			j := jobs[k]
			// The rep label is positional, not part of what determines
			// the run (only the seed varies with it): a row substituted
			// from another sweep position exports this one's.
			row.Run.Rep = j.Rep
			if row.Resilience != nil {
				row.Resilience.Rep = j.Rep
			}
			sw.rows[k] = &row
			var events uint64
			var firstViolation string
			if res := sw.Points[j.Point].Runs[j.Rep]; res != nil {
				events, firstViolation = res.Events, res.FirstViolation
			}
			sw.Tally(events, row.Run.Violations, firstViolation, row.Run.FailReason)
		})
	sw.Workers, sw.WallTime, sw.BusyTime, sw.Cancelled = st.Workers, st.WallTime, st.BusyTime, st.Cancelled
	return sw
}

// failedRun builds the structured Result for a contained run failure.
// Only the first line of the error is kept: panic stacks carry
// goroutine ids that vary with worker scheduling, and exports must be
// a pure function of the seed.
func failedRun(cfg Config, err error) *Result {
	res := newResult(cfg.withDefaults())
	res.Failed = true
	res.FailReason, _, _ = strings.Cut(err.Error(), "\n")
	if !cfg.Chaos.Empty() {
		// Nothing was scored; the resilience row still names its schedule.
		res.Resilience = &chaos.Report{Schedule: cfg.Chaos.Spec()}
	}
	return res
}

// ReplayToken renders the knobs that uniquely determine one run as a
// compact "k=v,..." token; ParseReplay inverts it. Exported rows carry
// one per run so any sweep cell can be re-executed standalone:
//
//	mptcpsim -replay 'clients=200,flows=1000,dur=1m0s,seed=42,...'
func (c Config) ReplayToken() string {
	c = c.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "clients=%d", c.Clients)
	if c.Sessions > 0 {
		fmt.Fprintf(&b, ",sessions=%d,think=%s", c.Sessions, c.ThinkMean)
	} else if c.Flows > 0 {
		fmt.Fprintf(&b, ",flows=%d", c.Flows)
	} else {
		fmt.Fprintf(&b, ",rate=%g", c.Rate)
	}
	fmt.Fprintf(&b, ",dur=%s,drain=%s,seed=%d", c.Duration, c.Drain, c.Seed)
	fmt.Fprintf(&b, ",mix=%s,transport=%s", c.Sizes.Name(), c.Transports)
	if c.WiFi.Name != defaultWiFi {
		fmt.Fprintf(&b, ",wifi=%s", c.WiFi.Name)
	}
	if c.Cell.Name != defaultCell {
		fmt.Fprintf(&b, ",cell=%s", c.Cell.Name)
	}
	if c.Controller != "" {
		fmt.Fprintf(&b, ",cc=%s", c.Controller)
	}
	if c.Scheduler != "" {
		fmt.Fprintf(&b, ",sched=%s", c.Scheduler)
	}
	if c.SampleProfiles {
		b.WriteString(",sample=1")
	}
	if c.SelfCheck {
		b.WriteString(",check=1")
	}
	bg := c.Background
	if bg.Enabled() {
		fmt.Fprintf(&b, ",bgwd=%s,bgwu=%s,bgcd=%s,bgcu=%s",
			bg.WiFiDown, bg.WiFiUp, bg.CellDown, bg.CellUp)
	}
	if !c.Chaos.Empty() {
		// The chaos grammar uses ':', ';' and '+' precisely so its
		// canonical spec nests inside this comma-separated token.
		fmt.Fprintf(&b, ",chaos=%s", c.Chaos.Spec())
	}
	return b.String()
}

// ParseReplay reconstructs a run Config from a ReplayToken (sampled link
// parameters are not in it; SampleProfiles re-derives them from the seed).
func ParseReplay(tok string) (Config, error) {
	var c Config
	if err := c.setAll("", tok); err != nil {
		return c, err
	}
	return c, c.Validate()
}

// WriteSummary renders one run for a human: the replay token, the
// flow-completion quantiles its export row carries, per-link load and
// drops, and the resilience report under its schedule line.
func WriteSummary(w io.Writer, cfg Config, res *Result) {
	fmt.Fprintf(w, "replay:     %s\n", cfg.ReplayToken())
	fmt.Fprintf(w, "flows:      %d offered, %d started, %d completed, %d incomplete\n",
		res.Offered, res.Started, res.Completed, res.Incomplete)
	fmt.Fprintf(w, "fct:        p50 %.3fs  p90 %.3fs  p99 %.3fs  mean %.3fs  max %.3fs\n",
		res.FCT.Quantile(0.50), res.FCT.Quantile(0.90), res.FCT.Quantile(0.99), res.FCT.Mean(), res.FCT.Max())
	fmt.Fprintf(w, "goodput:    mean %.2fMbps/flow, Jain %.3f over %d flows\n",
		res.Goodput.Mean()/float64(units.Mbps), res.Goodput.Jain(), res.Goodput.N())
	fmt.Fprintf(w, "cell share: %.1f%% of sender bytes\n", res.CellShare()*100)
	for _, l := range res.Links {
		fmt.Fprintf(w, "link %-9s %5.1f%% utilized, %d sent, %d queue drops, %d medium drops\n",
			l.Name+":", l.Utilization*100, l.Sent, l.QueueDrop, l.MediumDrop)
	}
	fmt.Fprintf(w, "sim:        %s events, %d violations\n", units.Commas(res.Events), res.Violations)
	if res.Violations > 0 {
		fmt.Fprintf(w, "FIRST VIOLATION: %s\n", res.FirstViolation)
	}
	if r := res.Resilience; r != nil {
		fmt.Fprintf(w, "chaos:      %s\n", r.Schedule)
		r.WriteText(w)
	}
	if res.Failed {
		fmt.Fprintf(w, "RUN FAILED: %s\n", res.FailReason)
	}
}

// setAll walks a "k=v,k=v" list through Set, prefix before each key.
func (c *Config) setAll(prefix, list string) error {
	for _, part := range strings.Split(list, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return fmt.Errorf("load: bad part %q (want key=value)", part)
		}
		if err := c.Set(prefix+k, v); err != nil {
			return fmt.Errorf("load: part %q: %v", part, err)
		}
	}
	return nil
}

// Set assigns one field by its replay-token key: the token grammar is the
// load spec, for ParseReplay and for mptcpload's flags alike.
func (c *Config) Set(k, v string) error {
	var err error
	switch k {
	case "clients":
		_, err = fmt.Sscanf(v, "%d", &c.Clients)
	case "sessions":
		_, err = fmt.Sscanf(v, "%d", &c.Sessions)
	case "think":
		c.ThinkMean, err = units.ParseTime(v)
	case "flows":
		_, err = fmt.Sscanf(v, "%d", &c.Flows)
	case "rate":
		_, err = fmt.Sscanf(v, "%g", &c.Rate)
	case "dur":
		c.Duration, err = units.ParseTime(v)
	case "drain":
		c.Drain, err = units.ParseTime(v)
	case "seed":
		_, err = fmt.Sscanf(v, "%d", &c.Seed)
	case "mix":
		c.Sizes, err = ParseSizeDist(v)
	case "transport":
		c.Transports, err = ParseTransportMix(v)
	case "wifi":
		c.WiFi, err = pathmodel.ByName(v)
	case "cell":
		c.Cell, err = pathmodel.ByName(v)
	case "cc":
		c.Controller = v
	case "sched":
		c.Scheduler = v
	case "sample":
		c.SampleProfiles = v == "1"
	case "check":
		c.SelfCheck = v == "1"
	case "bg": // all four directions at once: "wd=8Mbps,cu=256Kbps"
		err = c.setAll("bg", v)
	case "bgwd":
		c.Background.WiFiDown, err = units.ParseBitRate(v)
	case "bgwu":
		c.Background.WiFiUp, err = units.ParseBitRate(v)
	case "bgcd":
		c.Background.CellDown, err = units.ParseBitRate(v)
	case "bgcu":
		c.Background.CellUp, err = units.ParseBitRate(v)
	case "chaos":
		c.Chaos, err = chaos.Parse(v)
	default:
		err = fmt.Errorf("unknown key %q", k)
	}
	return err
}

// Validate rejects configs that would panic or wedge the engine —
// the guard that makes a malformed or hand-edited replay token fail
// with a one-line error instead of a stack trace.
func (c Config) Validate() error {
	d := c.withDefaults()
	if d.Clients < 1 || d.Clients > world.MaxClients {
		return fmt.Errorf("load: clients=%d outside [1,%d]", d.Clients, world.MaxClients)
	}
	if c.Flows < 0 {
		return fmt.Errorf("load: flows=%d is negative", c.Flows)
	}
	if c.Rate < 0 {
		return fmt.Errorf("load: rate=%g is negative", c.Rate)
	}
	if c.Sessions < 0 {
		return fmt.Errorf("load: sessions=%d is negative", c.Sessions)
	}
	if c.ThinkMean < 0 {
		return fmt.Errorf("load: think=%v is negative", c.ThinkMean)
	}
	if d.Duration <= 0 {
		return fmt.Errorf("load: dur=%v must be positive", d.Duration)
	}
	if c.Drain < 0 {
		return fmt.Errorf("load: drain=%v is negative", c.Drain)
	}
	if _, err := cc.New(c.Controller); err != nil {
		return err
	}
	return mptcp.ValidateScheduler(c.Scheduler)
}

// sortedRates lists a sweep's distinct rates in ascending order, for
// report tables.
func (sw *Sweep) sortedRates() []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, p := range sw.Points {
		if !seen[p.Rate] {
			seen[p.Rate] = true
			out = append(out, p.Rate)
		}
	}
	sort.Float64s(out)
	return out
}
