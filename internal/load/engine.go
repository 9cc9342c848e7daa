package load

import (
	"fmt"
	"sort"
	"time"

	"mptcplab/internal/cc"
	"mptcplab/internal/chaos"
	"mptcplab/internal/check"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// Config describes one fleet run. Equal configs (including Seed)
// reproduce runs exactly — the whole fleet, background traffic
// included, executes inside one deterministic simulation.
type Config struct {
	// Clients is the number of fleet members sharing the bottlenecks.
	Clients int
	// WiFi and Cell profile the shared AP and cellular sector
	// (defaults: CoffeeShop and ATT — the §4.1 scenario at scale).
	WiFi, Cell pathmodel.Profile
	// SampleProfiles applies the profiles' per-run Spread before
	// building links, as the campaign runner does.
	SampleProfiles bool

	// Sizes draws per-flow transfer sizes (default SmallFlowMix).
	Sizes SizeDist
	// Transports draws each flow's stack (default all-MPTCP).
	Transports TransportMix
	// Controller and Scheduler configure the stacks ("olia"/"coupled"/
	// "reno"; "lowest-rtt"/...), defaulting as the experiment package
	// does.
	Controller, Scheduler string

	// Open-loop arrivals: Flows > 0 schedules exactly that many flows
	// at Poisson-conditioned times in [0, Duration); otherwise Rate is
	// the Poisson arrival rate in flows per simulated second.
	Flows int
	Rate  float64
	// Closed-loop sessions: when Sessions > 0 the open-loop knobs are
	// ignored and each session loops request → download → think, with
	// exponentially distributed think times of mean ThinkMean.
	Sessions  int
	ThinkMean sim.Time

	// Duration is the arrival window; Drain is extra simulated time
	// for in-flight transfers to finish (default 30 s).
	Duration sim.Time
	Drain    sim.Time

	// Background cross-traffic through the shared bottlenecks.
	Background Background

	// Chaos, when non-empty, applies a deterministic fault schedule to
	// the shared access links (and, for storms, the fleet's MPTCP
	// addresses) and collects a resilience report in Result.Resilience.
	// The schedule spec is part of the replay token.
	Chaos chaos.Schedule

	// Deadline is a per-run wall-clock budget (0 = none): a run burning
	// more real time than this is killed by the watchdog and reported
	// as a failed run. Wall-clock kills are inherently nondeterministic,
	// so Deadline is execution policy, not configuration — it is NOT
	// part of the replay token. Livelock detection is always armed.
	Deadline time.Duration

	// Seed drives every random stream of the run.
	Seed int64
	// SelfCheck arms the internal/check referee: every segment at every
	// host is verified online, all stacks are probed periodically, and
	// completed MPTCP transfers run the byte-stream oracle. Results are
	// unchanged (the checker draws no randomness); violations land in
	// Result.Violations.
	SelfCheck bool
}

// The default profiles, as pathmodel.ByName knows them: withDefaults
// fills them in and ReplayToken leaves them out.
const defaultWiFi, defaultCell = "coffeeshop-wifi", "att"

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 100
	}
	if c.WiFi.Name == "" {
		c.WiFi, _ = pathmodel.ByName(defaultWiFi)
	}
	if c.Cell.Name == "" {
		c.Cell, _ = pathmodel.ByName(defaultCell)
	}
	if c.Sizes == nil {
		c.Sizes = SmallFlowMix()
	}
	if c.Transports == (TransportMix{}) {
		// Normalize so the zero value consumes the same RNG draws as
		// the explicit all-MPTCP mix: a replayed token must walk the
		// arrival stream identically to the run that exported it.
		c.Transports = TransportMix{MPTCP: 1}
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Drain == 0 {
		c.Drain = 30 * sim.Second
	}
	if c.ThinkMean == 0 {
		c.ThinkMean = 2 * sim.Second
	}
	return c
}

// flow is one in-flight transfer's lifecycle record. It lives only
// while the flow is active: completion folds it into the streaming
// result and drops it, so live memory is O(concurrent flows), never
// O(total flows).
type flow struct {
	id        int
	transport world.Transport
	size      units.ByteCount
	start     sim.Time
	session   int // closed-loop session index, -1 for open-loop

	client  *world.Client
	local   seg.Addr // first-subflow local address: the accept routing key
	getter  *web.Getter
	tracked *chaos.Tracked

	// Client- and server-side stack handles for accounting/teardown.
	cli, srv world.Peer
}

// fleet is the per-run engine state.
type fleet struct {
	cfg  Config
	topo *world.World
	ck   *check.Checker
	res  *Result
	mon  *chaos.Monitor

	mpCfg    mptcp.Config
	arrivals *sim.RNG // transport/size/client draws
	flowRNG  *sim.RNG // per-flow stack randomness parent
	nextID   int

	// byClientAddr routes server-side accepts back to the flow that
	// dialed: keyed by the client's first-subflow local address.
	byClientAddr map[seg.Addr]*flow
	active       map[int]*flow
}

// selfCheckEvery is the SelfCheck probe period.
const selfCheckEvery = 250 * sim.Millisecond

// Run executes one fleet workload on a fresh world and returns its
// streaming-stats result. The run is confined to the calling
// goroutine; distinct runs share no state and may proceed in parallel
// (the sweep builds on this, exactly like the campaign runner).
func Run(cfg Config) *Result { return RunIn(world.New(), cfg) }

// RunIn executes one fleet workload on a reused world — a sweep worker
// drives its whole job stream through one, keeping the pools warm — and
// returns exactly what Run does on a fresh one. The world must not be
// shared between goroutines.
func RunIn(a *world.World, cfg Config) *Result {
	res, _ := runFleetIn(a, cfg)
	return res
}

// NewArena forwards to world.New for bench/, which is frozen; the next
// benchmark PR switches its probe to world.New and deletes this.
func NewArena() *world.World { return world.New() }

// runFleetIn resets the arena and executes one run on it, returning the
// engine handle too for tests that assert on internal state.
func runFleetIn(a *world.World, cfg Config) (*Result, *fleet) {
	cfg = cfg.withDefaults()
	a.Reset()
	s := a.Sim
	rng := sim.NewRNG(cfg.Seed)

	wifi, cell := cfg.WiFi, cfg.Cell
	if cfg.SampleProfiles {
		wifi = wifi.Sample(rng.Child("wifi-sample"))
		cell = cell.Sample(rng.Child("cell-sample"))
	}
	topo := NewTopology(a.Net, rng.Child("topo"), wifi, cell, cfg.Clients)

	f := &fleet{
		cfg:          cfg,
		topo:         topo,
		res:          newResult(cfg),
		arrivals:     rng.Child("arrivals"),
		flowRNG:      rng.Child("flows"),
		byClientAddr: make(map[seg.Addr]*flow),
		active:       make(map[int]*flow),
	}
	f.buildStackConfig()

	if cfg.SelfCheck {
		f.ck = check.Arm(topo, selfCheckEvery)
	}
	f.mon = topo.ArmChaos(cfg.Chaos, cfg.Deadline, f.live)

	topo.Serve(f.mpCfg, f.flowRNG.Child("server"), f.accept)
	startBackground(topo, cfg.Background, rng.Child("background"), cfg.Duration)

	if cfg.Sessions > 0 {
		f.startSessions()
	} else {
		for _, at := range arrivalTimes(f.arrivals, cfg.Rate, cfg.Flows, cfg.Duration) {
			at := at
			s.At(at, "fleet.arrival", func() { f.startFlow(-1) })
			f.res.Offered++
		}
	}
	if testRunHook != nil {
		testRunHook(f)
	}

	s.RunUntil(cfg.Duration + cfg.Drain)
	f.res.FailReason = topo.FailReason()
	f.res.Failed = f.res.FailReason != ""
	f.finish()
	if f.mon != nil {
		f.res.ChaosSpec = cfg.Chaos.Spec()
		f.res.Resilience = f.mon.Finish()
	}
	return f.res, f
}

// testRunHook, when non-nil, runs after a fleet is wired but before
// its simulation starts. Containment tests use it to sabotage one run
// (an injected panic or livelock) and prove the sweep survives. It is
// written only before RunSweep starts its workers.
var testRunHook func(*fleet)

// buildStackConfig materializes the stack config once; the controllers
// are stateless values shared safely by every flow. The Controller knob
// steers MPTCP coupling only — single-path TCP flows run the config's
// TCP half, always New Reno, like the background wgets in the paper.
func (f *fleet) buildStackConfig() {
	name := f.cfg.Controller
	if name == "" {
		name = "coupled"
	}
	ctrl, err := cc.New(name)
	if err != nil {
		panic(err)
	}
	f.mpCfg = mptcp.DefaultConfig()
	f.mpCfg.Controller = ctrl
	if f.cfg.Scheduler != "" {
		f.mpCfg.Scheduler = f.cfg.Scheduler
	}
}

// accept routes a server-side accept back to the flow that dialed it
// and serves that flow's object; unknown clients are refused.
func (f *fleet) accept(p world.Peer) *web.FileServer {
	remote := p.EP
	if p.Conn != nil {
		remote = p.Conn.Subflows()[0].EP
	}
	fl := f.byClientAddr[remote.Remote]
	if fl == nil {
		return nil
	}
	fl.srv = p
	if f.ck != nil {
		f.ck.Watch(fmt.Sprintf("srv-flow-%d", fl.id), p)
	}
	return &web.FileServer{SizeFor: func(int) int { return int(fl.size) }}
}

// startSessions launches the closed-loop sessions, staggered uniformly
// over one mean think time so they don't all arrive in lockstep.
func (f *fleet) startSessions() {
	for i := 0; i < f.cfg.Sessions; i++ {
		i := i
		at := sim.Time(f.arrivals.Float64() * float64(f.cfg.ThinkMean))
		f.topo.Sim.At(at, "fleet.session", func() { f.sessionNext(i) })
	}
}

// sessionNext issues session i's next request, if the arrival window
// is still open.
func (f *fleet) sessionNext(i int) {
	if f.topo.Sim.Now() >= f.cfg.Duration {
		return
	}
	f.res.Offered++
	f.startFlow(i)
}

// startFlow opens one transfer now on a deterministic pseudo-random
// client.
func (f *fleet) startFlow(session int) {
	id := f.nextID
	f.nextID++
	client := f.topo.Clients[f.arrivals.Intn(len(f.topo.Clients))]
	fl := &flow{
		id:        id,
		transport: f.cfg.Transports.pick(f.arrivals),
		size:      f.cfg.Sizes.Sample(f.arrivals),
		start:     f.topo.Sim.Now(),
		session:   session,
		client:    client,
	}
	f.active[id] = fl
	f.res.Started++

	wifiAddr, cellAddr := client.Addrs()
	fl.local = wifiAddr
	if fl.transport == world.TCPCell {
		fl.local = cellAddr
	}
	f.byClientAddr[fl.local] = fl
	fl.cli = f.topo.Dial(client, fl.transport, mptcp.DialOpts{
		LocalAddrs: []seg.Addr{wifiAddr, cellAddr},
		Config:     f.mpCfg,
	}, f.flowRNG.Child(fmt.Sprintf("flow/%d", id)))
	if f.ck != nil {
		f.ck.Watch(fmt.Sprintf("cli-flow-%d", id), fl.cli)
	}
	fl.getter = web.NewGetter(fl.cli.Stream())
	fl.getter.Get(int(fl.size), func() { f.complete(fl) })
	if f.mon != nil {
		fl.tracked = f.mon.Track(fmt.Sprintf("flow-%d", id),
			func() int64 { return fl.getter.BytesReceived })
	}
}

// complete retires a finished flow: fold its lifecycle metrics into
// the streaming result, close the transfer, release the record, and —
// for closed-loop sessions — schedule the next think/request cycle.
func (f *fleet) complete(fl *flow) {
	fct := f.topo.Sim.Now() - fl.start
	f.res.absorbFlow(f.topo, fl, fct)
	f.checkTransfer(fl, true)
	if fl.tracked != nil {
		fl.tracked.Done(true)
	}
	fl.getter.Close()
	delete(f.active, fl.id)
	delete(f.byClientAddr, fl.local)

	if fl.session >= 0 {
		think := sim.Time(f.arrivals.Exponential(float64(f.cfg.ThinkMean)))
		sess := fl.session
		f.topo.Sim.At(f.topo.Sim.Now()+think, "fleet.think", func() { f.sessionNext(sess) })
	}
}

// checkTransfer runs the byte-stream oracle over an MPTCP flow the
// server accepted.
func (f *fleet) checkTransfer(fl *flow, complete bool) {
	if f.ck != nil && fl.srv.Conn != nil && fl.cli.Conn != nil {
		f.ck.CheckTransfer(fmt.Sprintf("flow-%d", fl.id), fl.srv.Conn, fl.cli.Conn, complete)
	}
}

// sortedActive lists the live flows in id order — chaos hooks iterate
// it instead of the active map so address withdrawal order and rate
// sums (and hence the whole run) are deterministic.
func (f *fleet) sortedActive() []*flow {
	ids := make([]int, 0, len(f.active))
	for id := range f.active {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*flow, len(ids))
	for i, id := range ids {
		out[i] = f.active[id]
	}
	return out
}

// live feeds the world's chaos hooks the active MPTCP flows.
func (f *fleet) live(yield func(cl *world.Client, client, server *mptcp.Conn)) {
	for _, fl := range f.sortedActive() {
		if fl.cli.Conn != nil {
			yield(fl.client, fl.cli.Conn, fl.srv.Conn)
		}
	}
}

// finish closes out the run: account still-active flows as
// incomplete, fold link and checker state into the result.
func (f *fleet) finish() {
	for _, fl := range f.active {
		f.res.absorbIncomplete(f.topo, fl)
		f.checkTransfer(fl, false)
	}
	f.res.finish(f.topo, f.ck)
}
