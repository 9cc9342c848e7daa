package check

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"mptcplab/internal/chaos"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// PathParams sizes one access network of a scenario.
type PathParams struct {
	Rate  units.BitRate
	Delay sim.Time
	Loss  float64
	Queue units.ByteCount
}

// Scenario is one fully seeded adversarial run: every parameter —
// topology, transfer, and the fault script — derives deterministically
// from Seed, and Mask selects which generated faults are active (bit i
// keeps Faults[i]). Shrinking only clears mask bits, so a scenario is
// always replayable from the "seed:mask" token alone. The faults are
// chaos events, armed through World.ArmChaos exactly as a campaign's
// or a fleet's schedule is.
type Scenario struct {
	Seed         int64
	Size         int
	FourPaths    bool
	Simultaneous bool
	RcvBuf       units.ByteCount
	WiFi, Cell   PathParams
	Faults       []chaos.Event
	Mask         uint64

	// Scheduler selects the packet-scheduling plugin ("" = minrtt).
	// It is not derived from the seed — the fuzzer sweeps the same
	// seeded scenarios under each scheduler — and rides the replay
	// token as an optional third field ("seed:mask:sched").
	Scheduler string
}

// maxFaults bounds the script length so Mask always fits.
const maxFaults = 8

// GenScenario derives the scenario for a case seed.
func GenScenario(seed int64) Scenario {
	rng := sim.NewRNG(seed).Child("scenario")
	sc := Scenario{
		Seed:         seed,
		Size:         16<<10 + rng.Intn(240<<10),
		FourPaths:    rng.Bool(0.25),
		Simultaneous: rng.Bool(0.5),
		RcvBuf:       units.ByteCount(64<<10 + rng.Intn(2<<20)),
		WiFi: PathParams{
			Rate:  units.BitRate(rng.Uniform(2e6, 30e6)),
			Delay: rng.Duration(5*sim.Millisecond, 40*sim.Millisecond),
			Loss:  rng.Uniform(0, 0.02),
			Queue: units.ByteCount(50<<10 + rng.Intn(250<<10)),
		},
		Cell: PathParams{
			Rate:  units.BitRate(rng.Uniform(1e6, 10e6)),
			Delay: rng.Duration(30*sim.Millisecond, 120*sim.Millisecond),
			Loss:  rng.Uniform(0, 0.005),
			Queue: units.ByteCount(100<<10 + rng.Intn(650<<10)),
		},
	}
	n := rng.Intn(maxFaults + 1)
	for i := 0; i < n; i++ {
		kind := rng.Intn(drawnKinds)
		at := rng.Duration(0, 4*sim.Second)
		dur := rng.Duration(50*sim.Millisecond, 2*sim.Second)
		par := rng.Uniform(0.05, 0.5)
		if i == 0 && rng.Bool(0.3) {
			// Bias one fault onto the handshake window.
			at = rng.Duration(0, 200*sim.Millisecond)
		}
		sc.Faults = append(sc.Faults, drawnFault(kind, at, dur, par))
	}
	if len(sc.Faults) > 0 {
		sc.Mask = (uint64(1) << len(sc.Faults)) - 1
	}
	return sc
}

// drawnKinds is how many fault kinds GenScenario draws from. The draw
// and its order are part of every replay token: a kind added to the
// fuzzer must come after these six, drawn so no earlier seed moves.
const drawnKinds = 6

// drawnFault maps one drawn fault onto the chaos event that plays it,
// on WiFi unless noted: 0 an outage; 1 a cellular outage; 2 a constant
// loss burst of par; 3 a reorder window of depth par; 4 one storm
// cycle, whose address (WiFi's if par > 0.3, else cellular's) leaves at
// the start and rejoins dur later; 5 a handover storm, 100 ms flaps
// every 200 ms, one per two 100 ms toggles across dur (at most ten).
func drawnFault(kind int, at, dur sim.Time, par float64) chaos.Event {
	e := chaos.Event{Path: chaos.WiFi, At: at, Dur: dur}
	switch kind {
	case 0:
		e.Kind = chaos.Outage
	case 1:
		e.Kind, e.Path = chaos.Outage, chaos.Cell
	case 2:
		e.Kind, e.Loss = chaos.Loss, par
	case 3:
		e.Kind, e.Depth, e.ExtraDelay = chaos.Reorder, par, 150*sim.Millisecond
	case 4:
		e.Kind, e.Every = chaos.Storm, 2*dur
		if par <= 0.3 {
			e.Path = chaos.Cell
		}
	case 5:
		toggles := min(int(dur/(100*sim.Millisecond))+1, 10)
		e.Kind, e.Count = chaos.Flap, (toggles+1)/2
		e.Dur, e.Every = 100*sim.Millisecond, 200*sim.Millisecond
	}
	return e
}

// ActiveFaults returns the faults selected by the mask.
func (sc Scenario) ActiveFaults() []chaos.Event {
	var out []chaos.Event
	for i, f := range sc.Faults {
		if sc.Mask&(uint64(1)<<i) != 0 {
			out = append(out, f)
		}
	}
	return out
}

// Replay renders the one-line token that reproduces this scenario.
// The scheduler appears as a third field only when it differs from
// the default, so tokens from earlier versions stay canonical.
func (sc Scenario) Replay() string {
	tok := fmt.Sprintf("%d:%x", sc.Seed, sc.Mask)
	if sc.Scheduler != "" {
		tok += ":" + sc.Scheduler
	}
	return tok
}

// ParseReplay reconstructs a scenario from a "seed:mask[:sched]"
// token (a bare seed means all generated faults active under the
// default scheduler). The scheduler field may itself contain colons
// ("weighted:3;1") — everything after the second colon is the spec.
func ParseReplay(tok string) (Scenario, error) {
	seedStr, rest, hasMask := strings.Cut(tok, ":")
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return Scenario{}, fmt.Errorf("check: bad replay seed %q: %v", seedStr, err)
	}
	sc := GenScenario(seed)
	if hasMask {
		maskStr, sched, hasSched := strings.Cut(rest, ":")
		mask, err := strconv.ParseUint(maskStr, 16, 64)
		if err != nil {
			return Scenario{}, fmt.Errorf("check: bad replay mask %q: %v", maskStr, err)
		}
		sc.Mask = mask
		if hasSched {
			if err := mptcp.ValidateScheduler(sched); err != nil {
				return Scenario{}, fmt.Errorf("check: bad replay scheduler: %v", err)
			}
			sc.Scheduler = sched
		}
	}
	return sc, nil
}

// Harness is one materialized fuzz topology: a one-client, dual-homed
// world.World (whose simulator, hosts and access links it promotes)
// with the checker armed on every host and link. Bug-injection hooks
// (tests only) receive it before the simulation runs.
type Harness struct {
	*world.World
	WiFiAddr, CellAddr seg.Addr

	ClientConn *mptcp.Conn
	ServerConn *mptcp.Conn

	// Monitor scores the download against the active faults; nil when
	// none is active. A hook may tune it before the run.
	Monitor *chaos.Monitor
}

// Report is the outcome of one fuzzed scenario.
type Report struct {
	Scenario    Scenario
	Completed   bool
	CompletedAt sim.Time // virtual completion time; valid only when Completed
	Delivered   int64
	Violations  []Violation
	Count       int

	// Resilience is the monitor's report; nil when no fault was active.
	Resilience *chaos.Report
}

// Ok reports a violation-free run.
func (r Report) Ok() bool { return r.Count == 0 }

// WriteText renders the case for a human: one line naming the scenario
// and its outcome, then each active fault as its chaos spec clause and
// each violation the checker recorded.
func (r Report) WriteText(w io.Writer) {
	sc := r.Scenario
	status, done, paths := "ok", "stalled", 2
	if !r.Ok() {
		status = fmt.Sprintf("%d violation(s)", r.Count)
	}
	if r.Completed {
		done = "completed"
	}
	if sc.FourPaths {
		paths = 4
	}
	faults := sc.ActiveFaults()
	fmt.Fprintf(w, "  seed=%d mask=%x size=%dKB paths=%d faults=%d: %s, %s, %d bytes delivered\n",
		sc.Seed, sc.Mask, sc.Size>>10, paths, len(faults), status, done, r.Delivered)
	for _, f := range faults {
		fmt.Fprintf(w, "    fault %s\n", chaos.Schedule{Events: []chaos.Event{f}}.Spec())
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %v\n", v)
	}
}

// scenarioDeadline bounds one fuzz case in virtual time; every fault
// ends well before it, so a healthy stack always finishes or stalls
// into a stable state by then.
const scenarioDeadline = 120 * sim.Second

// RunScenario executes one scenario with the checker armed and returns
// what it found. bug, if non-nil, runs after the harness is built and
// before the simulation starts — the test hook used to prove the
// checker catches deliberately injected corruption.
func RunScenario(sc Scenario, bug func(*Harness)) Report {
	w := world.New()
	s := w.Sim
	rng := sim.NewRNG(sc.Seed)

	access := func(name string, p PathParams) *netem.Link {
		l := netem.NewLink(s, rng, name)
		l.Rate = p.Rate
		l.PropDelay = p.Delay
		l.QueueLimit = p.Queue
		if p.Loss > 0 {
			l.Loss = netem.BernoulliLoss{P: p.Loss}
		}
		return l
	}
	var a world.Access
	a.WiFiUp, a.WiFiDown = access("wifi-up", sc.WiFi), access("wifi-down", sc.WiFi)
	a.CellUp, a.CellDown = access("cell-up", sc.Cell), access("cell-down", sc.Cell)
	w.Build(rng, a, 1, world.Paper(sc.FourPaths))

	ck := Arm(w, 25*sim.Millisecond)
	h := &Harness{World: w}
	cl := w.Client(0)
	h.WiFiAddr, h.CellAddr = cl.Addrs()

	t := tcp.DefaultConfig()
	t.RcvBuf = sc.RcvBuf
	cfg := mptcp.ConfigOver(t)
	cfg.SimultaneousSYN = sc.Simultaneous
	if sc.Scheduler != "" {
		cfg.Scheduler = sc.Scheduler
	}

	fs := &web.FileServer{SizeFor: func(int) int { return sc.Size }}
	w.Serve(cfg, rng.Child("srv"), func(p world.Peer) *web.FileServer {
		h.ServerConn = p.Conn
		ck.Watch("server", p)
		return fs
	})

	conn := w.Dial(cl, world.MPTCP, mptcp.DialOpts{
		LocalAddrs:     []seg.Addr{h.WiFiAddr, h.CellAddr},
		JoinAdvertised: sc.FourPaths,
		Config:         cfg,
	}, rng.Child("cli")).Conn
	h.ClientConn = conn
	ck.WatchConn("client", conn)

	getter := web.NewGetter(web.MPTCPStream{Conn: conn})
	var (
		completed   bool
		completedAt sim.Time
		tracked     *chaos.Tracked
	)
	getter.Get(sc.Size, func() {
		completed = true
		completedAt = s.Now()
		if tracked != nil {
			tracked.Done(true)
		}
		getter.Close()
	})

	h.Monitor = w.ArmChaos(chaos.Schedule{Events: sc.ActiveFaults()}, 0,
		func(yield func(cl *world.Client, client, server *mptcp.Conn)) {
			yield(cl, conn, h.ServerConn)
		})
	if h.Monitor != nil {
		tracked = h.Monitor.Track(func() int64 { return conn.Reorder().Delivered })
	}
	if bug != nil {
		bug(h)
	}

	s.RunUntil(scenarioDeadline)

	// A run the watchdog killed is a violation like any other, so it
	// shrinks and replays through the same token.
	if reason := w.FailReason(); reason != "" {
		ck.Report("livelock", reason)
		if tracked != nil {
			tracked.Abort()
		}
	}
	if h.ServerConn != nil {
		ck.CheckTransfer("download", h.ServerConn, conn, completed)
	}
	ck.RunProbes()

	rep := Report{
		Scenario:    sc,
		Completed:   completed,
		CompletedAt: completedAt,
		Delivered:   conn.Reorder().Delivered,
		Violations:  ck.Violations(),
		Count:       ck.Count(),
	}
	if h.Monitor != nil {
		rep.Resilience = h.Monitor.Finish()
	}
	return rep
}

// Shrink minimizes a violating scenario's fault script: it greedily
// clears mask bits while the run still reproduces the original
// violation rule, converging on a minimal fault set (possibly empty —
// a violation the base scenario triggers on its own). run abstracts
// RunScenario so tests can thread the bug hook through.
func Shrink(sc Scenario, run func(Scenario) Report) Scenario {
	rep := run(sc)
	if rep.Ok() || len(rep.Violations) == 0 {
		return sc
	}
	rule := rep.Violations[0].Rule
	reproduces := func(mask uint64) bool {
		s2 := sc
		s2.Mask = mask
		r := run(s2)
		for _, v := range r.Violations {
			if v.Rule == rule {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i := range sc.Faults {
			bit := uint64(1) << i
			if sc.Mask&bit == 0 {
				continue
			}
			if reproduces(sc.Mask &^ bit) {
				sc.Mask &^= bit
				changed = true
			}
		}
	}
	return sc
}
