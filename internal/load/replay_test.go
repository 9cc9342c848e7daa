package load

import (
	"strings"
	"testing"

	"mptcplab/internal/chaos"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// TestReplayTokenRoundTrip: ParseReplay must invert ReplayToken for
// every workload shape — a token that cannot rebuild its config would
// make exported rows unreproducible.
func TestReplayTokenRoundTrip(t *testing.T) {
	configs := []Config{
		{}, // all defaults
		{Clients: 200, Rate: 8, Seed: 42},
		{Clients: 50, Flows: 500, Seed: -3, Controller: "olia", Scheduler: "round-robin"},
		{Sessions: 30, ThinkMean: 5 * sim.Second, SampleProfiles: true, SelfCheck: true},
		{
			Clients: 10, Rate: 0.5, Duration: 15 * sim.Second, Drain: 5 * sim.Second,
			Sizes:      FixedSize(64 * units.KB),
			Transports: TransportMix{WiFi: 0.25, Cell: 0.25, MPTCP: 0.5},
			Background: Background{WiFiDown: 8 * units.Mbps, CellUp: 256 * units.Kbps},
		},
	}
	for _, cfg := range configs {
		tok := cfg.ReplayToken()
		back, err := ParseReplay(tok)
		if err != nil {
			t.Fatalf("ParseReplay(%q): %v", tok, err)
		}
		if got := back.ReplayToken(); got != tok {
			t.Errorf("token round trip changed:\n  orig  %s\n  again %s", tok, got)
		}
	}
	if _, err := ParseReplay("clients=10,bogus"); err == nil {
		t.Error("ParseReplay accepted a part with no '='")
	}
	if _, err := ParseReplay("wat=1"); err == nil {
		t.Error("ParseReplay accepted an unknown key")
	}
}

// TestReplayTokenCarriesProfiles: a token is self-contained off the
// default profiles too. A verizon + home-WiFi run, parsed back from its
// own token and run again, exports the same row; at the defaults the
// token stays byte-for-byte what it always was (cache keys hang on it).
func TestReplayTokenCarriesProfiles(t *testing.T) {
	cfg := Config{Clients: 8, Flows: 10, Duration: 3 * sim.Second, Drain: 5 * sim.Second, Seed: 5}
	if got, want := cfg.ReplayToken(), "clients=8,flows=10,dur=3s,drain=5s,seed=5,mix=small,transport=mptcp"; got != want {
		t.Errorf("default-profile token moved:\n  got  %s\n  want %s", got, want)
	}
	cfg.WiFi, cfg.Cell = pathmodel.ComcastHome(), pathmodel.Verizon()
	first := RunRow(cfg).Run
	if !strings.Contains(first.Replay, ",wifi=wifi,cell=verizon") {
		t.Fatalf("token %q does not name the profiles", first.Replay)
	}
	back, err := ParseReplay(first.Replay)
	if err != nil {
		t.Fatalf("ParseReplay(%q): %v", first.Replay, err)
	}
	if again := RunRow(back).Run; again != first {
		t.Errorf("replayed row differs:\n  first %+v\n  again %+v", first, again)
	}
	if onDefaults := RunRow(Config{Clients: 8, Flows: 10, Duration: 3 * sim.Second, Drain: 5 * sim.Second, Seed: 5}).Run; onDefaults.FCTMean == first.FCTMean {
		t.Error("the profiles made no difference to the run; the test proves nothing")
	}
}

// TestSetBackgroundList: the "bg" key takes all four directions at once
// in the same k=v grammar, which is how mptcpload's -bg binds.
func TestSetBackgroundList(t *testing.T) {
	var c Config
	if err := c.Set("bg", "wd=8Mbps,cu=256Kbps"); err != nil {
		t.Fatal(err)
	}
	if want := (Background{WiFiDown: 8 * units.Mbps, CellUp: 256 * units.Kbps}); c.Background != want {
		t.Errorf("bg set %+v, want %+v", c.Background, want)
	}
}

// TestReplayReproducesSweepRow: the token exported with a sweep row
// must re-execute to that row's exact numbers — the whole point of
// carrying it.
func TestReplayReproducesSweepRow(t *testing.T) {
	base := Config{
		Clients:   10,
		Duration:  5 * sim.Second,
		Drain:     10 * sim.Second,
		SelfCheck: true,
	}
	sw := RunSweep(SweepOpts{Base: base, Rates: []float64{3}, Reps: 1, Seed: 11})
	rows := sw.Export()
	if len(rows) != 1 {
		t.Fatalf("exported %d rows, want 1", len(rows))
	}
	row := rows[0]

	cfg, err := ParseReplay(row.Replay)
	if err != nil {
		t.Fatalf("ParseReplay(%q): %v", row.Replay, err)
	}
	res := Run(cfg)
	if res.Offered != row.Offered || res.Completed != row.Completed {
		t.Errorf("replay offered/completed %d/%d, row had %d/%d",
			res.Offered, res.Completed, row.Offered, row.Completed)
	}
	if got := res.FCT.Mean(); got != row.FCTMean {
		t.Errorf("replay FCT mean %v, row had %v", got, row.FCTMean)
	}
	if got := res.Goodput.Mean(); got != row.GoodputMean {
		t.Errorf("replay goodput mean %v, row had %v", got, row.GoodputMean)
	}
}

// TestParseSizeDist covers the named mixes, fixed sizes, and rejects.
func TestParseSizeDist(t *testing.T) {
	for spec, name := range map[string]string{
		"small": "small", "web": "web", "heavy": "heavy", "64KB": "64KB",
	} {
		d, err := ParseSizeDist(spec)
		if err != nil {
			t.Fatalf("ParseSizeDist(%q): %v", spec, err)
		}
		if d.Name() != name {
			t.Errorf("ParseSizeDist(%q).Name() = %q, want %q", spec, d.Name(), name)
		}
	}
	if _, err := ParseSizeDist("enormous"); err == nil {
		t.Error("ParseSizeDist accepted an unknown name")
	}

	// Every distribution must sample inside its declared support.
	rng := sim.NewRNG(3)
	for _, d := range []SizeDist{SmallFlowMix(), WebMix(), HeavyTail(), FixedSize(units.MB)} {
		lo, hi := units.ByteCount(1), units.ByteCount(1)<<40
		if p, ok := d.(BoundedPareto); ok {
			lo, hi = p.Lo, p.Hi
		}
		for i := 0; i < 2000; i++ {
			if s := d.Sample(rng); s < lo || s > hi {
				t.Fatalf("%s sampled %d outside [%d,%d]", d.Name(), s, lo, hi)
			}
		}
	}

	// The heavy tail must actually be heavy: with alpha close to 1, a
	// few thousand draws should span several orders of magnitude.
	h := HeavyTail()
	var minS, maxS units.ByteCount = 1 << 62, 0
	for i := 0; i < 5000; i++ {
		s := h.Sample(rng)
		if s < minS {
			minS = s
		}
		if s > maxS {
			maxS = s
		}
	}
	if maxS < 1000*minS {
		t.Errorf("heavy tail spanned only %d..%d; expected orders of magnitude", minS, maxS)
	}
}

// TestParseTransportMix covers named stacks, weighted lists, rejects,
// and the String inverse.
func TestParseTransportMix(t *testing.T) {
	cases := map[string]TransportMix{
		"mptcp":                       {MPTCP: 1},
		"":                            {MPTCP: 1},
		"tcp-wifi":                    {WiFi: 1},
		"cell":                        {Cell: 1},
		"wifi=0.3,cell=0.2,mptcp=0.5": {WiFi: 0.3, Cell: 0.2, MPTCP: 0.5},
	}
	for spec, want := range cases {
		m, err := ParseTransportMix(spec)
		if err != nil {
			t.Fatalf("ParseTransportMix(%q): %v", spec, err)
		}
		if m != want {
			t.Errorf("ParseTransportMix(%q) = %+v, want %+v", spec, m, want)
		}
	}
	for _, bad := range []string{"wifi=x", "train=1", "wifi=0,cell=0,mptcp=0", "justwifi"} {
		if _, err := ParseTransportMix(bad); err == nil {
			t.Errorf("ParseTransportMix(%q) accepted", bad)
		}
	}
	// String renders a spec ParseTransportMix maps back to the same mix.
	mixed := TransportMix{WiFi: 0.25, Cell: 0.25, MPTCP: 0.5}
	back, err := ParseTransportMix(mixed.String())
	if err != nil || back != mixed {
		t.Errorf("String round trip: %q -> %+v, %v", mixed.String(), back, err)
	}
	if s := (TransportMix{MPTCP: 1}).String(); s != "mptcp" {
		t.Errorf("all-MPTCP String() = %q", s)
	}
}

// TestSweepDescribe pins the one-line shape summary.
func TestSweepDescribe(t *testing.T) {
	sw := RunSweep(SweepOpts{
		Base:  Config{Clients: 5, Duration: sim.Second, Drain: 2 * sim.Second},
		Rates: []float64{1, 2},
		Reps:  2,
		Seed:  1,
	})
	want := "load sweep: 2 points (2 rates) x 2 reps"
	if got := sw.Describe(); !strings.HasPrefix(got, want) {
		t.Errorf("Describe() = %q, want prefix %q", got, want)
	}
}

// TestReplayTokenChaosRoundTrip: a chaos spec embedded in the token
// must come back as the same canonical schedule.
func TestReplayTokenChaosRoundTrip(t *testing.T) {
	sched, err := chaos.Parse("flap:path=wifi;at=1s;dur=200ms;every=1s;n=3+fade:path=cell;depth=0.5")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Clients: 20, Rate: 4, Seed: 9, Chaos: sched}
	tok := cfg.ReplayToken()
	if !strings.Contains(tok, "chaos="+sched.Spec()) {
		t.Fatalf("token %q does not embed canonical chaos spec", tok)
	}
	back, err := ParseReplay(tok)
	if err != nil {
		t.Fatalf("ParseReplay(%q): %v", tok, err)
	}
	if back.Chaos.Spec() != sched.Spec() {
		t.Fatalf("chaos spec changed: %q -> %q", sched.Spec(), back.Chaos.Spec())
	}
	if got := back.ReplayToken(); got != tok {
		t.Fatalf("token round trip changed:\n  orig  %s\n  again %s", tok, got)
	}
}

// TestParseReplayRejectsMalformed: every malformed or hostile token
// must fail with a one-line error — never a panic, never a wedged run.
func TestParseReplayRejectsMalformed(t *testing.T) {
	bad := []string{
		"",                                      // empty token
		"clients=10,flows",                      // truncated mid-pair
		"clients=10,flows=",                     // empty value
		"clients=-5,flows=10",                   // out-of-range fleet size
		"clients=999999",                        // beyond MaxClients
		"clients=10,dur=0s",                     // zero duration after defaults? (dur explicit 0 is default-substituted)
		"clients=10,dur=-5s",                    // negative duration
		"clients=10,flows=-3",                   // negative flow count
		"clients=10,rate=-1",                    // negative rate
		"clients=10,chaos=wat",                  // unknown chaos preset
		"clients=10,chaos=flap:dur=2s;every=1s", // invalid schedule (dur >= every)
		"clients=10,seed=notanum",               // unparseable integer
		"clients=10,sched=bogus",                // unknown scheduler
		"clients=10,sched=weighted:a;b",         // malformed weights
		"clients=10,cc=foo",                     // unknown controller: used to panic inside the run
		"clients=10,wifi=lan",                   // unknown profile
		"clients=10,bg=sideways=1",              // unknown background direction
	}
	for _, tok := range bad {
		cfg, err := ParseReplay(tok)
		if err == nil {
			// dur=0s parses and then defaults kick in — that one is
			// legitimately accepted; everything else must error.
			if tok == "clients=10,dur=0s" {
				continue
			}
			t.Errorf("ParseReplay(%q) accepted: %+v", tok, cfg)
			continue
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("ParseReplay(%q) returned a multi-line error: %q", tok, err)
		}
	}
}
