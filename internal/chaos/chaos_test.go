package chaos

import (
	"errors"
	"testing"

	"mptcplab/internal/netem"
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

func TestTimeRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want sim.Time
	}{
		{"500ms", 500 * sim.Millisecond},
		{"2s", 2 * sim.Second},
		{"1.5s", 1500 * sim.Millisecond},
		{"250us", 250 * sim.Microsecond},
		{"1m", sim.Minute},
	} {
		got, err := ParseTime(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseTime(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		back, err := ParseTime(FormatTime(got))
		if err != nil || back != got {
			t.Errorf("FormatTime(%v) = %q does not round-trip", got, FormatTime(got))
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
	var faults []string
	sc.Apply(s, Target{
		WiFi: []*netem.Link{wifi}, Cell: []*netem.Link{cell},
		OnFault: func(name string, _ sim.Time) { faults = append(faults, name) },
	})

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
	if len(faults) != 2 || faults[0] != "outage-wifi-down" || faults[1] != "outage-wifi-up" {
		t.Fatalf("fault marks = %v", faults)
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
func TestMonitorVerdictsAndTTR(t *testing.T) {
	s := sim.New()
	sc, _ := Parse("outage:path=wifi;at=1s;dur=1s")
	m := NewMonitor(s, sc)

	now := func() sim.Time { return s.Now() }
	// A: constant progress, done at 4s.
	aBytes := func() int64 { return int64(now() / sim.Millisecond) }
	a := m.Track("a", aBytes)
	s.At(4*sim.Second, "a-done", func() { a.Done(true) })
	// B: progress except [1s, 3.5s) — stalls through the fault,
	// recovers 2.5s after it clears... TTR ≈ 1.5s past window end.
	b := m.Track("b", func() int64 {
		t := now()
		if t >= sim.Second && t < 3500*sim.Millisecond {
			return int64(sim.Second / sim.Millisecond)
		}
		if t >= 3500*sim.Millisecond {
			return int64((t - 2500*sim.Millisecond) / sim.Millisecond)
		}
		return int64(t / sim.Millisecond)
	})
	s.At(6*sim.Second, "b-done", func() { b.Done(true) })
	// C: freezes at 1s forever.
	m.Track("c", func() int64 {
		if t := now(); t < sim.Second {
			return int64(t / sim.Millisecond)
		}
		return int64(sim.Second / sim.Millisecond)
	})

	s.RunUntil(8 * sim.Second)
	r := m.Finish()

	if len(r.Flows) != 3 {
		t.Fatalf("flows = %d", len(r.Flows))
	}
	byLabel := map[string]FlowReport{}
	for _, fr := range r.Flows {
		byLabel[fr.Label] = fr
	}
	if v := byLabel["a"].Verdict; v != VerdictOK {
		t.Errorf("a verdict = %v, want ok", v)
	}
	if v := byLabel["b"].Verdict; v != VerdictLate {
		t.Errorf("b verdict = %v, want late", v)
	}
	if byLabel["b"].Stalls == 0 || byLabel["b"].LongestStall < 2*sim.Second {
		t.Errorf("b stalls = %+v", byLabel["b"])
	}
	if v := byLabel["c"].Verdict; v != VerdictStalled {
		t.Errorf("c verdict = %v, want stalled", v)
	}
	// B's recovery from the 2s window end happened at ~3.5s.
	rec := byLabel["b"].Recovered()
	if len(rec) != 1 || rec[0] < 1.4 || rec[0] > 1.7 {
		t.Errorf("b TTR = %v, want ~1.5s", rec)
	}
	// A recovered instantly (it never stopped).
	if rec := byLabel["a"].Recovered(); len(rec) != 1 || rec[0] > 0.2 {
		t.Errorf("a TTR = %v, want ~0", rec)
	}
	// C never recovered.
	if byLabel["c"].TTR[0] != ttrPending {
		t.Errorf("c TTR = %v, want unrecovered", byLabel["c"].TTR)
	}
	if r.Unrecovered != 1 {
		t.Errorf("Unrecovered = %d, want 1", r.Unrecovered)
	}
	if g := r.Graceful(); g != "failed" {
		t.Errorf("Graceful = %q with a stalled flow, want failed", g)
	}
	e := r.Export(sc.Spec())
	if e.Flows != 3 || e.OK != 1 || e.Late != 1 || e.Stalled != 1 || e.Graceful != "failed" {
		t.Errorf("export mismatch: %+v", e)
	}
	if e.Recoveries != 2 || e.TTRMaxS < 1.4 {
		t.Errorf("export TTR mismatch: %+v", e)
	}
}

func TestMonitorFaultVsSteadyBytes(t *testing.T) {
	s := sim.New()
	sc, _ := Parse("outage:path=wifi;at=1s;dur=1s")
	m := NewMonitor(s, sc)
	// Steady 1 byte/ms outside the window, zero inside.
	tr := m.Track("f", func() int64 {
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
	fr := r.Flows[0]
	if fr.FaultBytes > 100 {
		t.Errorf("FaultBytes = %d, want ~0 (flow idle during outage)", fr.FaultBytes)
	}
	if fr.SteadyBytes < 1800 {
		t.Errorf("SteadyBytes = %d, want ~2000", fr.SteadyBytes)
	}
	if r.SteadyGoodput() <= r.FaultGoodput() {
		t.Errorf("steady %v <= fault %v goodput", r.SteadyGoodput(), r.FaultGoodput())
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
