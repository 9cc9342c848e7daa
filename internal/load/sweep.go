package load

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mptcplab/internal/chaos"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/sim"
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
	Runs    []*Result // indexed by rep
}

// Sweep is a completed campaign.
type Sweep struct {
	Points []SweepPoint

	// Execution metadata (excluded from exports, which must stay a
	// pure function of the seed).
	WallTime        time.Duration
	BusyTime        time.Duration
	Workers         int
	TotalEvents     uint64
	TotalViolations int
	FirstViolation  string

	// Cancelled reports the sweep was stopped early via
	// SweepOpts.Context; unexecuted runs stay nil.
	Cancelled bool
	// FailedRuns counts runs that panicked or were killed by the
	// watchdog — each still has a Result row (Failed=true).
	FailedRuns int
}

// sweepJob addresses one run: grid point and repetition indices.
type sweepJob struct {
	point, rep int
}

// SweepSalt is the load sweep's historical shuffle salt; like the
// experiment runner's it must never change, since it determines the
// execution order equal seeds replay. Exported for harnesses that drive
// grid points on the sweep engine themselves (the mptcpd service layer)
// and must claim jobs in RunSweep's order.
const SweepSalt = 0x10ad

// Grid materializes the sweep's grid points in canonical order —
// rates outermost, then fleet sizes, then schedulers, exactly the
// order exports walk — with Runs slices sized for o.Reps. The service
// layer uses it to address individual (point, rep) runs without
// executing the whole sweep; RunSweep builds its own grid the same
// way.
func (o SweepOpts) Grid() []SweepPoint {
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

// PointConfig specializes the base config to one grid point: the
// point's axes override the base, and a rate axis clears any fixed
// flow count. The per-run seed is not set here — callers derive it
// with RunSeed.
func PointConfig(base Config, p SweepPoint) Config {
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

// RunSeed derives the seed of one (point, rep) run of a sweep, the
// same derivation RunSweep applies: disjoint 21-bit index fields
// through the Splitmix64 bijection (see sweep.Seed).
func (o SweepOpts) RunSeed(point, rep int) int64 {
	return sweep.Seed(o.Seed, point, rep)
}

// RunSweep executes the grid on the generic sweep engine. Like the
// experiment campaign runner, the job list is shuffled before
// execution, fanned out to a worker pool, and absorbed into points in
// the fixed shuffled-list order — so every aggregate and export is
// byte-identical for any worker count.
func RunSweep(opts SweepOpts) *Sweep {
	sw := &Sweep{Points: opts.Grid()}
	var jobs []sweepJob
	for pi := range sw.Points {
		for rep := 0; rep < opts.reps(); rep++ {
			jobs = append(jobs, sweepJob{pi, rep})
		}
	}

	// runJob executes one run on the worker's world, reused across its
	// job stream (warm pools, byte-identical results); after a
	// contained panic the engine discards the world — it was left
	// mid-run — and the next job builds a fresh one.
	runJob := func(worker **world.World, k int) *Result {
		j := jobs[k]
		cfg := PointConfig(opts.Base, sw.Points[j.point])
		cfg.Seed = opts.RunSeed(j.point, j.rep)
		if *worker == nil {
			*worker = world.New()
		}
		return RunIn(*worker, cfg)
	}

	st := sweep.Run(sweep.Opts{
		Seed:     opts.Seed,
		Salt:     SweepSalt,
		Workers:  opts.Workers,
		Progress: opts.Progress,
		Context:  opts.Context,
	}, len(jobs), runJob,
		func(k int, err error) *Result {
			j := jobs[k]
			cfg := PointConfig(opts.Base, sw.Points[j.point])
			cfg.Seed = opts.RunSeed(j.point, j.rep)
			return FailedRun(cfg, err)
		},
		func(k int, res *Result) {
			j := jobs[k]
			sw.Points[j.point].Runs[j.rep] = res
			sw.TotalEvents += res.Events
			sw.TotalViolations += res.Violations
			if res.Failed {
				sw.FailedRuns++
			}
			if sw.FirstViolation == "" {
				sw.FirstViolation = res.FirstViolation
			}
		})

	sw.Workers = st.Workers
	sw.Cancelled = st.Cancelled
	sw.BusyTime = st.BusyTime
	sw.WallTime = st.WallTime
	return sw
}

// FailedRun builds the structured Result row for a contained run
// failure — exported for harnesses that drive grid points on the
// sweep engine themselves (the mptcpd service layer) and need
// failures shaped exactly as RunSweep shapes them. Only the first line
// of the error is kept: panic stacks carry goroutine ids that vary with
// worker scheduling, and exports must be a pure function of the seed.
func FailedRun(cfg Config, err error) *Result {
	res := newResult(cfg.withDefaults())
	res.Failed = true
	res.FailReason, _, _ = strings.Cut(err.Error(), "\n")
	if !cfg.Chaos.Empty() {
		res.ChaosSpec = cfg.Chaos.Spec()
	}
	return res
}

// ReplayToken renders the knobs that uniquely determine one run as a
// compact "k=v,..." token; ParseReplay inverts it. Exported rows carry
// one per run so any sweep cell can be re-executed standalone:
//
//	mptcpload -replay 'clients=200,flows=1000,dur=1m0s,seed=42,...'
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

// ParseReplay reconstructs a run Config from a ReplayToken. Profiles
// come back as the defaults (the token does not encode sampled link
// parameters; SampleProfiles re-derives them from the seed).
func ParseReplay(tok string) (Config, error) {
	var c Config
	for _, part := range strings.Split(tok, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return c, fmt.Errorf("load: bad replay part %q", part)
		}
		var err error
		switch k {
		case "clients":
			_, err = fmt.Sscanf(v, "%d", &c.Clients)
		case "sessions":
			_, err = fmt.Sscanf(v, "%d", &c.Sessions)
		case "think":
			c.ThinkMean, err = parseSimTime(v)
		case "flows":
			_, err = fmt.Sscanf(v, "%d", &c.Flows)
		case "rate":
			_, err = fmt.Sscanf(v, "%g", &c.Rate)
		case "dur":
			c.Duration, err = parseSimTime(v)
		case "drain":
			c.Drain, err = parseSimTime(v)
		case "seed":
			_, err = fmt.Sscanf(v, "%d", &c.Seed)
		case "mix":
			c.Sizes, err = ParseSizeDist(v)
		case "transport":
			c.Transports, err = ParseTransportMix(v)
		case "cc":
			c.Controller = v
		case "sched":
			c.Scheduler = v
		case "sample":
			c.SampleProfiles = v == "1"
		case "check":
			c.SelfCheck = v == "1"
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
		if err != nil {
			return c, fmt.Errorf("load: replay token part %q: %v", part, err)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
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
	if c.Scheduler != "" {
		if err := mptcp.ValidateScheduler(c.Scheduler); err != nil {
			return err
		}
	}
	return nil
}

func parseSimTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(s)
	return sim.Time(d), err
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
