package check

import (
	"fmt"
	"strconv"
	"strings"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// FaultKind enumerates the adversarial events the fuzzer composes.
type FaultKind int

// Fault kinds.
const (
	FaultWiFiOutage FaultKind = iota
	FaultCellOutage
	FaultBurstLoss     // Bernoulli loss spike on the WiFi path
	FaultChaosWindow   // duplication + extreme reordering on the WiFi path
	FaultRemoveAddr    // client tears an interface down via REMOVE_ADDR
	FaultHandoverStorm // rapid WiFi down/up toggles
	faultKinds

	// Kinds past the faultKinds sentinel are battery-only: GenScenario's
	// seeded draw is rng.Intn(int(faultKinds)), so adding them here
	// leaves every historical seed-derived scenario — and with it every
	// replay token — byte-identical. They can only appear in scripts
	// built by hand (the conformance battery).

	// FaultWiFiFade sweeps a raised-cosine signal fade across the WiFi
	// path: link rate scales down and loss scales up following
	// pathmodel.SignalFade, bottoming out at depth Par mid-fade. Unlike
	// an outage the path never goes administratively down — it keeps
	// accepting (and mostly dropping) bytes, which is exactly the trap
	// that punishes schedulers trusting stale path weights.
	FaultWiFiFade
)

// String names the fault for replay logs.
func (k FaultKind) String() string {
	switch k {
	case FaultWiFiOutage:
		return "wifi-outage"
	case FaultCellOutage:
		return "cell-outage"
	case FaultBurstLoss:
		return "burst-loss"
	case FaultChaosWindow:
		return "chaos"
	case FaultRemoveAddr:
		return "remove-addr"
	case FaultHandoverStorm:
		return "handover-storm"
	case FaultWiFiFade:
		return "wifi-fade"
	}
	return fmt.Sprintf("fault(%d)", int(k))
}

// Fault is one timed adversarial event in a scenario.
type Fault struct {
	Kind FaultKind
	At   sim.Time
	Dur  sim.Time
	Par  float64 // kind-specific intensity
}

func (f Fault) String() string {
	return fmt.Sprintf("%v@%v+%v(%.2f)", f.Kind, f.At, f.Dur, f.Par)
}

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
// always replayable from the "seed:mask" token alone.
type Scenario struct {
	Seed         int64
	Size         int
	FourPaths    bool
	Simultaneous bool
	RcvBuf       units.ByteCount
	WiFi, Cell   PathParams
	Faults       []Fault
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
		f := Fault{
			Kind: FaultKind(rng.Intn(int(faultKinds))),
			At:   rng.Duration(0, 4*sim.Second),
			Dur:  rng.Duration(50*sim.Millisecond, 2*sim.Second),
			Par:  rng.Uniform(0.05, 0.5),
		}
		if i == 0 && rng.Bool(0.3) {
			// Bias one fault onto the handshake window.
			f.At = rng.Duration(0, 200*sim.Millisecond)
		}
		sc.Faults = append(sc.Faults, f)
	}
	if len(sc.Faults) > 0 {
		sc.Mask = (uint64(1) << len(sc.Faults)) - 1
	}
	return sc
}

// ActiveFaults returns the faults selected by the mask.
func (sc Scenario) ActiveFaults() []Fault {
	var out []Fault
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
}

// Report is the outcome of one fuzzed scenario.
type Report struct {
	Scenario    Scenario
	Completed   bool
	CompletedAt sim.Time // virtual completion time; valid only when Completed
	Delivered   int64
	Violations  []Violation
	Count       int
}

// Ok reports a violation-free run.
func (r Report) Ok() bool { return r.Count == 0 }

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
	h.WiFiAddr, h.CellAddr = w.Clients[0].Addrs()

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

	conn := w.Dial(w.Clients[0], world.MPTCP, mptcp.DialOpts{
		LocalAddrs:     []seg.Addr{h.WiFiAddr, h.CellAddr},
		JoinAdvertised: sc.FourPaths,
		Config:         cfg,
	}, rng.Child("cli")).Conn
	h.ClientConn = conn
	ck.WatchConn("client", conn)

	getter := web.NewGetter(web.MPTCPStream{Conn: conn})
	completed := false
	var completedAt sim.Time
	getter.Get(sc.Size, func() {
		completed = true
		completedAt = s.Now()
		getter.Close()
	})

	h.scheduleFaults(sc)
	if bug != nil {
		bug(h)
	}

	s.RunUntil(scenarioDeadline)

	if h.ServerConn != nil {
		ck.CheckTransfer("download", h.ServerConn, conn, completed)
	}
	ck.RunProbes()

	return Report{
		Scenario:    sc,
		Completed:   completed,
		CompletedAt: completedAt,
		Delivered:   conn.Reorder().Delivered,
		Violations:  ck.Violations(),
		Count:       ck.Count(),
	}
}

// scheduleFaults turns the active fault script into simulator events.
func (h *Harness) scheduleFaults(sc Scenario) {
	for _, f := range sc.ActiveFaults() {
		f := f
		switch f.Kind {
		case FaultWiFiOutage:
			h.Sim.At(f.At, "fault.wifi-outage", func() { h.SetWiFiDown(true) })
			h.Sim.At(f.At+f.Dur, "fault.wifi-restore", func() { h.SetWiFiDown(false) })
		case FaultCellOutage:
			h.Sim.At(f.At, "fault.cell-outage", func() { h.SetCellDown(true) })
			h.Sim.At(f.At+f.Dur, "fault.cell-restore", func() { h.SetCellDown(false) })
		case FaultBurstLoss:
			h.Sim.At(f.At, "fault.burst-loss", func() {
				h.WiFiUp.Loss = netem.BernoulliLoss{P: f.Par}
				h.WiFiDown.Loss = netem.BernoulliLoss{P: f.Par}
			})
			h.Sim.At(f.At+f.Dur, "fault.loss-restore", func() {
				h.WiFiUp.Loss = netem.BernoulliLoss{P: sc.WiFi.Loss}
				h.WiFiDown.Loss = netem.BernoulliLoss{P: sc.WiFi.Loss}
			})
		case FaultChaosWindow:
			chaos := &netem.Chaos{
				DupProb:     f.Par * 0.5,
				ReorderProb: f.Par,
				ExtraDelay:  150 * sim.Millisecond,
			}
			h.Sim.At(f.At, "fault.chaos", func() {
				h.WiFiUp.Chaos = chaos
				h.WiFiDown.Chaos = chaos
			})
			h.Sim.At(f.At+f.Dur, "fault.chaos-restore", func() {
				h.WiFiUp.Chaos = nil
				h.WiFiDown.Chaos = nil
			})
		case FaultRemoveAddr:
			addr := h.CellAddr
			if f.Par > 0.3 {
				addr = h.WiFiAddr
			}
			h.Sim.At(f.At, "fault.remove-addr", func() { h.ClientConn.RemoveLocalAddr(addr) })
		case FaultHandoverStorm:
			toggles := int(f.Dur/(100*sim.Millisecond)) + 1
			if toggles > 10 {
				toggles = 10
			}
			for i := 0; i < toggles; i++ {
				down := i%2 == 0
				h.Sim.At(f.At+sim.Time(i)*100*sim.Millisecond, "fault.handover", func() { h.SetWiFiDown(down) })
			}
			// Always come back up after the storm.
			h.Sim.At(f.At+sim.Time(toggles)*100*sim.Millisecond, "fault.handover-end", func() { h.SetWiFiDown(false) })
		case FaultWiFiFade:
			// Sweep the raised-cosine fade in fixed steps. The link never
			// goes down — rate bottoms out at (1-Par) of nominal with a
			// small floor so serialization stays defined, and loss peaks
			// mid-fade per the SignalFade curve.
			const fadeSteps = 40
			step := f.Dur / fadeSteps
			if step <= 0 {
				step = sim.Millisecond
			}
			for i := 0; i <= fadeSteps; i++ {
				frac := float64(i) / fadeSteps
				scale, fadeLoss := pathmodel.SignalFade(frac, f.Par)
				rate := units.BitRate(float64(sc.WiFi.Rate) * scale)
				if rate < 50*units.Kbps {
					rate = 50 * units.Kbps
				}
				p := sc.WiFi.Loss + fadeLoss
				if p > 0.95 {
					p = 0.95
				}
				h.Sim.At(f.At+sim.Time(i)*step, "fault.wifi-fade", func() {
					h.WiFiUp.Rate = rate
					h.WiFiDown.Rate = rate
					h.WiFiUp.Loss = netem.BernoulliLoss{P: p}
					h.WiFiDown.Loss = netem.BernoulliLoss{P: p}
				})
			}
			h.Sim.At(f.At+f.Dur+step, "fault.wifi-fade-end", func() {
				h.WiFiUp.Rate = sc.WiFi.Rate
				h.WiFiDown.Rate = sc.WiFi.Rate
				h.WiFiUp.Loss = netem.BernoulliLoss{P: sc.WiFi.Loss}
				h.WiFiDown.Loss = netem.BernoulliLoss{P: sc.WiFi.Loss}
			})
		}
	}
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
