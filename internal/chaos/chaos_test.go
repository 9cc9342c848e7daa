package chaos

import (
	"errors"
	"math"
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

func TestPresetsParseAndRoundTrip(t *testing.T) {
	for _, name := range PresetNames() {
		sc, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if sc.Empty() {
			t.Fatalf("preset %q is empty", name)
		}
		spec := sc.Spec()
		sc2, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(Spec(%q)) = Parse(%q): %v", name, spec, err)
		}
		if sc2.Spec() != spec {
			t.Fatalf("spec not canonical: %q -> %q", spec, sc2.Spec())
		}
		if len(sc.Windows()) == 0 {
			t.Fatalf("preset %q has no fault windows", name)
		}
	}
}

func TestParseOverridesAndCompose(t *testing.T) {
	sc, err := Parse("outage:path=cell;at=1s;dur=250ms+flap:n=2;every=3s")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("events = %d, want 2", len(sc.Events))
	}
	e := sc.Events[0]
	if e.Path != Cell || e.At != sim.Second || e.Dur != 250*sim.Millisecond {
		t.Fatalf("override not applied: %+v", e)
	}
	if f := sc.Events[1]; f.Count != 2 || f.Every != 3*sim.Second {
		t.Fatalf("flap override not applied: %+v", f)
	}
	ws := sc.Windows()
	if len(ws) != 3 { // 1 outage + 2 flaps
		t.Fatalf("windows = %d, want 3", len(ws))
	}
	if ws[0].Start > ws[1].Start || ws[1].Start > ws[2].Start {
		t.Fatalf("windows not sorted: %+v", ws)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"meteor",               // unknown kind
		"outage:path=dsl",      // unknown path
		"outage:dur=xyz",       // bad duration
		"outage:dur=5",         // missing unit
		"outage:gain=3",        // unknown key
		"outage:dur",           // not key=value
		"flap:every=1s;dur=2s", // flap longer than spacing
		"ramp:steps=0",         // zero steps
		"fade:depth=1.5",       // depth out of range
		"storm:every=0s",       // no period
		"outage:dur=0s",        // empty window
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
	// Empty and "none" mean no chaos, not an error.
	for _, spec := range []string{"", "none"} {
		sc, err := Parse(spec)
		if err != nil || !sc.Empty() {
			t.Errorf("Parse(%q) = %+v, %v; want empty, nil", spec, sc, err)
		}
	}
}

func testLink(s *sim.Simulator, rng *sim.RNG, name string) *netem.Link {
	l := netem.NewLink(s, rng, name)
	l.Rate = 10 * units.Mbps
	l.PropDelay = 10 * sim.Millisecond
	return l
}

func TestApplyOutageTogglesLinks(t *testing.T) {
	s := sim.New()
	rng := sim.NewRNG(1)
	wifi := testLink(s, rng, "wifi")
	cell := testLink(s, rng, "cell")
	sc, _ := Parse("outage:path=wifi;at=1s;dur=500ms")
	sc.Apply(s, Target{WiFi: []*netem.Link{wifi}, Cell: []*netem.Link{cell}})

	s.RunUntil(1100 * sim.Millisecond)
	if !wifi.IsDown() {
		t.Fatal("wifi link not down during outage window")
	}
	if cell.IsDown() {
		t.Fatal("cell link went down for a wifi outage")
	}
	s.RunUntil(2 * sim.Second)
	if wifi.IsDown() {
		t.Fatal("wifi link still down after outage window")
	}
}

func TestApplyRampDegradesAndRestores(t *testing.T) {
	s := sim.New()
	rng := sim.NewRNG(1)
	cell := testLink(s, rng, "cell")
	nominal := cell.Rate
	nominalLoss := cell.Loss
	sc, _ := Parse("ramp:path=cell;at=1s;dur=2s;depth=0.9;loss=0.1;delay=40ms;steps=8")
	sc.Apply(s, Target{Cell: []*netem.Link{cell}})

	// Deep inside the window the link must be degraded on all three
	// axes.
	s.RunUntil(2800 * sim.Millisecond)
	if cell.Rate >= nominal/2 {
		t.Fatalf("rate %v barely degraded from %v late in the ramp", cell.Rate, nominal)
	}
	if cell.PropDelay <= 10*sim.Millisecond {
		t.Fatalf("delay %v did not grow", cell.PropDelay)
	}
	if _, ok := cell.Loss.(overlayLoss); !ok {
		t.Fatalf("no loss overlay applied: %T", cell.Loss)
	}
	// After the window everything snaps back to nominal, exactly.
	s.RunUntil(4 * sim.Second)
	if cell.Rate != nominal || cell.PropDelay != 10*sim.Millisecond || cell.Loss != nominalLoss {
		t.Fatalf("not restored: rate=%v delay=%v loss=%v", cell.Rate, cell.PropDelay, cell.Loss)
	}
}

func TestApplyFadeDipsAndRecovers(t *testing.T) {
	s := sim.New()
	rng := sim.NewRNG(1)
	wifi := testLink(s, rng, "wifi")
	nominal := wifi.Rate
	nominalLoss := wifi.Loss
	sc, _ := Parse("fade:path=wifi;at=1s;dur=4s;depth=0.95;steps=16")
	sc.Apply(s, Target{WiFi: []*netem.Link{wifi}})

	s.RunUntil(3 * sim.Second) // fade midpoint
	if wifi.Rate > nominal/10 {
		t.Fatalf("rate %v at fade bottom, want <= %v", wifi.Rate, nominal/10)
	}
	s.RunUntil(6 * sim.Second)
	if wifi.Rate != nominal || wifi.Loss != nominalLoss {
		t.Fatalf("fade did not restore: rate=%v loss=%v", wifi.Rate, wifi.Loss)
	}
}

func TestApplyStormCallsHooks(t *testing.T) {
	s := sim.New()
	sc, _ := Parse("storm:path=wifi;at=1s;dur=1s;every=250ms")
	var gone, back int
	sc.Apply(s, Target{
		Withdraw: func(p Path) {
			if p != WiFi {
				t.Errorf("withdraw path = %v", p)
			}
			gone++
		},
		Restore: func(Path) { back++ },
	})
	s.RunUntil(5 * sim.Second)
	if gone != 4 || back != 4 {
		t.Fatalf("withdraw/restore = %d/%d, want 4/4", gone, back)
	}
}

// A monitor over synthetic progress functions: flow A sails through,
// flow B stalls across the fault and recovers, flow C never recovers.
// Each flow runs under a monitor of its own, so its report is its
// per-flow record; then all three share one.
func TestMonitorVerdictsAndTTR(t *testing.T) {
	sc, _ := Parse("outage:path=wifi;at=1s;dur=1s")
	ms := func(t sim.Time) int64 { return int64(t / sim.Millisecond) }
	flows := map[string]struct {
		progress func(sim.Time) int64
		doneAt   sim.Time // 0: never completes
	}{
		// A: constant progress, done at 4s.
		"a": {ms, 4 * sim.Second},
		// B: progress except [1s, 3.5s) — stalls through the fault,
		// recovers 1.5s after it clears.
		"b": {func(t sim.Time) int64 {
			switch {
			case t >= sim.Second && t < 3500*sim.Millisecond:
				return ms(sim.Second)
			case t >= 3500*sim.Millisecond:
				return ms(t - 2500*sim.Millisecond)
			}
			return ms(t)
		}, 6 * sim.Second},
		// C: freezes at 1s forever.
		"c": {func(t sim.Time) int64 { return ms(min(t, sim.Second)) }, 0},
	}
	run := func(labels ...string) *Report {
		s := sim.New()
		m := NewMonitor(s, sc)
		for _, l := range labels {
			f := flows[l]
			tr := m.Track(func() int64 { return f.progress(s.Now()) })
			if f.doneAt > 0 {
				s.At(f.doneAt, l+"-done", func() { tr.Done(true) })
			}
		}
		s.RunUntil(8 * sim.Second)
		return m.Finish()
	}

	a, b, c := run("a"), run("b"), run("c")
	if a.OK != 1 {
		t.Errorf("a: %+v, want verdict ok", a)
	}
	if b.Late != 1 {
		t.Errorf("b: %+v, want verdict late", b)
	}
	if b.Stalls == 0 || b.LongestStallS < 2 {
		t.Errorf("b stalls = %d, longest %.3fs; want a stall of >= 2s", b.Stalls, b.LongestStallS)
	}
	if c.Stalled != 1 {
		t.Errorf("c: %+v, want verdict stalled", c)
	}
	// B's recovery from the 2s window end happened at ~3.5s.
	if b.Recoveries != 1 || b.TTRMeanS < 1.4 || b.TTRMeanS > 1.7 {
		t.Errorf("b: %d recoveries, TTR %.3fs; want one of ~1.5s", b.Recoveries, b.TTRMeanS)
	}
	// A recovered instantly (it never stopped).
	if a.Recoveries != 1 || a.TTRMaxS > 0.2 {
		t.Errorf("a: %d recoveries, TTR %.3fs; want one of ~0", a.Recoveries, a.TTRMaxS)
	}
	// C never recovered.
	if c.Recoveries != 0 || c.Unrecovered != 1 {
		t.Errorf("c: %d recoveries, %d unrecovered; want 0, 1", c.Recoveries, c.Unrecovered)
	}
	if c.Graceful != "failed" {
		t.Errorf("Graceful = %q with a stalled flow, want failed", c.Graceful)
	}

	r := run("a", "b", "c")
	if r.Flows != 3 || r.OK != 1 || r.Late != 1 || r.Stalled != 1 || r.Graceful != "failed" {
		t.Errorf("one monitor over all three: %+v", r)
	}
	if r.Recoveries != 2 || r.Unrecovered != 1 || r.TTRMaxS != b.TTRMaxS {
		t.Errorf("one monitor over all three: TTR mismatch: %+v", r)
	}
}

func TestMonitorFaultVsSteadyBytes(t *testing.T) {
	s := sim.New()
	sc, _ := Parse("outage:path=wifi;at=1s;dur=1s")
	m := NewMonitor(s, sc)
	// Steady 1 byte/ms outside the window, zero inside.
	tr := m.Track(func() int64 {
		t := s.Now()
		if t < sim.Second {
			return int64(t / sim.Millisecond)
		}
		if t < 2*sim.Second {
			return 1000
		}
		return 1000 + int64((t-2*sim.Second)/sim.Millisecond)
	})
	s.At(3*sim.Second, "done", func() { tr.Done(true) })
	s.RunUntil(4 * sim.Second)
	r := m.Finish()
	if r.FaultBytes > 100 {
		t.Errorf("FaultBytes = %d, want ~0 (flow idle during outage)", r.FaultBytes)
	}
	if r.SteadyBytes < 1800 {
		t.Errorf("SteadyBytes = %d, want ~2000", r.SteadyBytes)
	}
	if r.SteadyBps <= r.FaultBps {
		t.Errorf("steady %v <= fault %v bits/s", r.SteadyBps, r.FaultBps)
	}
	if r.Schedule != sc.Spec() {
		t.Errorf("Schedule = %q, want %q", r.Schedule, sc.Spec())
	}
}

// TestMonitorPathTelemetry: per-path rate samples split by window
// membership, and a path's recovery is credited at the first tick its
// rate is back above zero after the window ends.
func TestMonitorPathTelemetry(t *testing.T) {
	s := sim.New()
	sc, _ := Parse("outage:path=wifi;at=1s;dur=1s")
	m := NewMonitor(s, sc)
	// WiFi delivers 1000 B/s except over [1s, 2.5s); cellular always 500 B/s.
	m.PathRates = func() (wifi, cell float64) {
		if now := s.Now(); now >= sim.Second && now < 2500*sim.Millisecond {
			return 0, 500
		}
		return 1000, 500
	}
	s.RunUntil(4 * sim.Second)
	r := m.Finish()
	if r.WiFiTTRSec != 0.5 || r.CellTTRSec != 0 {
		t.Errorf("path TTR wifi %v s, cell %v s; want 0.5, 0", r.WiFiTTRSec, r.CellTTRSec)
	}
	if r.WiFiFaultBps != 0 || r.CellFaultBps != 8*500 || r.CellSteadyBps != 8*500 {
		t.Errorf("fault/steady split: %+v", r)
	}
	// 60 steady ticks (19 before the window, 41 from 2 s to 4 s), ten
	// of them at zero.
	if want := 8 * 1000 * 50.0 / 60; math.Abs(r.WiFiSteadyBps-want) > 1e-9 {
		t.Errorf("wifi steady %v bit/s, want %v", r.WiFiSteadyBps, want)
	}
}

func TestArmWatchdogCatchesLivelock(t *testing.T) {
	s := sim.New()
	var spin func()
	spin = func() { s.At(s.Now(), "spin", spin) }
	s.At(10*sim.Millisecond, "start", spin)
	ArmWatchdog(s, 0)
	s.RunUntil(sim.Second)
	if !errors.Is(s.AbortErr(), ErrLivelock) {
		t.Fatalf("AbortErr = %v, want ErrLivelock", s.AbortErr())
	}
}

func TestArmWatchdogPassesHealthyRun(t *testing.T) {
	s := sim.New()
	n := 0
	var tick func()
	tick = func() {
		if n++; n < 3_000_000 {
			s.After(sim.Microsecond, "tick", tick)
		}
	}
	s.After(sim.Microsecond, "tick", tick)
	ArmWatchdog(s, 0)
	s.Run()
	if s.AbortErr() != nil {
		t.Fatalf("healthy run aborted: %v", s.AbortErr())
	}
}

// TestOverlappingWindowsCompose: two windows on one path compose
// instead of the later one's edges undoing the earlier one. Each link
// is recomputed from its nominal parameters and every window active on
// it, so the link ends each overlap exactly where the survivor wants it
// and ends the schedule at nominal.
func TestOverlappingWindowsCompose(t *testing.T) {
	run := func(t *testing.T, spec string) (*sim.Simulator, *netem.Link) {
		t.Helper()
		s := sim.New()
		wifi := testLink(s, sim.NewRNG(1), "wifi")
		wifi.Loss = netem.BernoulliLoss{P: 0.01}
		sc, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		sc.Apply(s, Target{WiFi: []*netem.Link{wifi}})
		return s, wifi
	}
	nominalLoss := netem.BernoulliLoss{P: 0.01}
	overlay := func(t *testing.T, l *netem.Link, want float64) {
		t.Helper()
		o, ok := l.Loss.(overlayLoss)
		if !ok || o.base != nominalLoss || math.Abs(o.p-want) > 1e-12 {
			t.Fatalf("loss = %#v, want overlay p=%v on the nominal model", l.Loss, want)
		}
	}

	t.Run("outage+outage", func(t *testing.T) {
		s, wifi := run(t, "outage:path=wifi;at=1s;dur=2s+outage:path=wifi;at=2s;dur=2s")
		s.RunUntil(3500 * sim.Millisecond)
		if !wifi.IsDown() {
			t.Fatal("link up at 3.5s while the second outage still covers it")
		}
		s.RunUntil(4 * sim.Second)
		if wifi.IsDown() {
			t.Fatal("link still down at 4s after both outages ended")
		}
	})

	t.Run("ramp+fade", func(t *testing.T) {
		s, wifi := run(t, "ramp:path=wifi;at=1s;dur=2s;depth=0.5;loss=0.05;delay=20ms;steps=4"+
			"+fade:path=wifi;at=2s;dur=3s;depth=0.5;steps=6")
		s.RunUntil(2600 * sim.Millisecond) // ramp step 3 and fade step 1 both active
		rampScale := 1 - 0.5*0.75
		fadeScale, _ := pathmodel.SignalFade(1.0/6, 0.5)
		if want := units.BitRate(float64(10*units.Mbps) * (rampScale * fadeScale)); wifi.Rate != want {
			t.Errorf("rate %v in the overlap, want nominal x both scales = %v", wifi.Rate, want)
		}
		if want := 10*sim.Millisecond + 15*sim.Millisecond; wifi.PropDelay != want {
			t.Errorf("delay %v in the overlap, want %v", wifi.PropDelay, want)
		}
		s.RunUntil(6 * sim.Second)
		if wifi.Rate != 10*units.Mbps || wifi.PropDelay != 10*sim.Millisecond || wifi.Loss != nominalLoss {
			t.Fatalf("after both windows: rate=%v delay=%v loss=%#v, want nominal", wifi.Rate, wifi.PropDelay, wifi.Loss)
		}
	})

	t.Run("loss+loss", func(t *testing.T) {
		s, wifi := run(t, "loss:path=wifi;at=1s;dur=2s;loss=0.1+loss:path=wifi;at=2s;dur=2s;loss=0.2")
		s.RunUntil(1500 * sim.Millisecond)
		overlay(t, wifi, 0.1)
		s.RunUntil(2500 * sim.Millisecond)
		overlay(t, wifi, 1-0.9*0.8) // one draw at the combined probability
		s.RunUntil(3500 * sim.Millisecond)
		overlay(t, wifi, 0.2)
		s.RunUntil(4 * sim.Second)
		if wifi.Loss != nominalLoss {
			t.Fatalf("loss %#v after both windows, want the nominal model", wifi.Loss)
		}
	})

	t.Run("outage+flap", func(t *testing.T) {
		s, wifi := run(t, "outage:path=wifi;at=1s;dur=2s+flap:path=wifi;at=2s;dur=200ms;every=1s;n=2")
		for _, tc := range []struct {
			at   sim.Time
			down bool
		}{
			{1500 * sim.Millisecond, true},
			{2100 * sim.Millisecond, true},
			{2500 * sim.Millisecond, true}, // the flap's first up must not end the outage
			{3100 * sim.Millisecond, true}, // the outage's end must not end the flap
			{3500 * sim.Millisecond, false},
		} {
			s.RunUntil(tc.at)
			if wifi.IsDown() != tc.down {
				t.Fatalf("at %v: down=%v, want %v", tc.at, wifi.IsDown(), tc.down)
			}
		}
	})
}
