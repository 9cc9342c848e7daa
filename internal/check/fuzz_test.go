package check

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

func TestGenScenarioDeterministic(t *testing.T) {
	a, b := GenScenario(42), GenScenario(42)
	if a.Replay() != b.Replay() || a.Size != b.Size || len(a.Faults) != len(b.Faults) {
		t.Fatalf("GenScenario not deterministic: %+v vs %+v", a, b)
	}
	for i := range a.Faults {
		if a.Faults[i] != b.Faults[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, a.Faults[i], b.Faults[i])
		}
	}
}

func TestParseReplayRoundTrip(t *testing.T) {
	sc := GenScenario(17)
	sc.Mask &= 0x5 // arbitrary sub-script
	got, err := ParseReplay(sc.Replay())
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != sc.Seed || got.Mask != sc.Mask {
		t.Fatalf("round trip %q -> seed=%d mask=%x, want seed=%d mask=%x",
			sc.Replay(), got.Seed, got.Mask, sc.Seed, sc.Mask)
	}
	if _, err := ParseReplay("nonsense"); err == nil {
		t.Fatal("ParseReplay accepted garbage")
	}
	if _, err := ParseReplay("12:zz"); err == nil {
		t.Fatal("ParseReplay accepted a bad mask")
	}
}

func TestFuzzScenariosClean(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz scenarios are slow")
	}
	for s := int64(1); s <= 8; s++ {
		sc := GenScenario(s)
		rep := RunScenario(sc, nil)
		if !rep.Ok() {
			t.Errorf("seed %d (replay %s): %d violations, first: %v",
				s, sc.Replay(), rep.Count, rep.Violations[0])
		}
		if rep.Completed && rep.Delivered < int64(sc.Size) {
			t.Errorf("seed %d: completed but delivered %d < %d", s, rep.Delivered, sc.Size)
		}
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	sc := GenScenario(3)
	a, b := RunScenario(sc, nil), RunScenario(sc, nil)
	if a.Delivered != b.Delivered || a.Completed != b.Completed || a.Count != b.Count {
		t.Fatalf("same scenario diverged: %+v vs %+v", a, b)
	}
}

// corruptDSS is the deliberately injected bug used to prove the
// checker catches real wire-level corruption: a raw tap installed
// after the checker's (so the checker first observes the clean
// mapping at server egress) that shifts the DSS data sequence of
// every payload segment past the first few, silently remapping
// subflow bytes onto the wrong data-stream position.
func corruptDSS(h *Harness) {
	n := 0
	h.Server.AddRawTap(func(dir netem.Direction, at sim.Time, s *seg.Segment) {
		if dir != netem.Egress || s.PayloadLen == 0 {
			return
		}
		n++
		if n < 4 {
			return
		}
		if s.Has(seg.OptDSS) && s.DSS.HasMap && s.DSS.Length > 0 {
			s.DSS.DataSeq += 1 << 20
		}
	})
}

func TestFuzzShrinkReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz scenarios are slow")
	}
	run := func(sc Scenario) Report { return RunScenario(sc, corruptDSS) }

	sc := GenScenario(1)
	if len(sc.Faults) < 2 {
		t.Fatalf("seed 1 generated %d faults; want a non-trivial script to shrink", len(sc.Faults))
	}
	rep := run(sc)
	if rep.Ok() {
		t.Fatal("injected DSS corruption went undetected")
	}
	if !hasRule(rep, "dss-remap") {
		t.Fatalf("expected a dss-remap violation, got %v", rep.Violations)
	}

	// The bug is independent of the fault script, so shrinking must
	// strip every fault and still reproduce.
	min := Shrink(sc, run)
	if min.Mask != 0 {
		t.Fatalf("shrink left mask %x, want 0 (fault-independent bug)", min.Mask)
	}

	// The printed one-line token must reproduce the minimal case.
	tok := min.Replay()
	parsed, err := ParseReplay(tok)
	if err != nil {
		t.Fatalf("replay token %q: %v", tok, err)
	}
	rerun := run(parsed)
	if !hasRule(rerun, "dss-remap") {
		t.Fatalf("replay %q did not reproduce dss-remap: %v", tok, rerun.Violations)
	}
	// And without the bug the very same scenario is clean — the
	// violation is the bug's, not the scenario's.
	if clean := RunScenario(parsed, nil); !clean.Ok() {
		t.Fatalf("scenario %q violates without the injected bug: %v", tok, clean.Violations)
	}
}

func hasRule(rep Report, rule string) bool {
	for _, v := range rep.Violations {
		if v.Rule == rule {
			return true
		}
	}
	return false
}

// TestFuzzHarnessIdentity pins what RunScenario simulates, not just
// that it finds no violations: completion, virtual completion time,
// delivered bytes and the simulator's event count for eight seeds
// (2-path and 4-path, every fault kind) under three schedulers,
// recorded before the harness moved onto internal/world. A harness
// refactor that shifts an RNG draw or an event fails here. (The events
// column alone was re-recorded when link departures stopped being
// events, DESIGN.md §20; the other four columns are the originals.)
func TestFuzzHarnessIdentity(t *testing.T) {
	for _, want := range []struct {
		seed        int64
		sched       string
		completed   bool
		completedAt sim.Time
		delivered   int64
		count       int
		events      uint64
	}{
		{1, "minrtt", true, 481950760, 60384, 0, 5007},
		{1, "redundant", true, 420196260, 60384, 0, 318},
		{1, "blest", true, 481950760, 60384, 0, 5007},
		{4, "minrtt", true, 1685161288, 189490, 0, 723},
		{4, "redundant", true, 1646701645, 189490, 0, 1426},
		{4, "blest", true, 1685161288, 189490, 0, 723},
		{7, "minrtt", true, 304247187, 70222, 0, 232},
		{7, "redundant", true, 267044069, 70222, 0, 282},
		{7, "blest", true, 304247187, 70222, 0, 232},
		{17, "minrtt", true, 308467586, 68763, 0, 286},
		{17, "redundant", true, 268991456, 68763, 0, 340},
		{17, "blest", true, 308467586, 68763, 0, 286},
		{19, "minrtt", false, 0, 0, 0, 5262},
		{19, "redundant", false, 0, 0, 0, 5262},
		{19, "blest", false, 0, 0, 0, 5262},
		{25, "minrtt", true, 1249682626, 80453, 0, 785},
		{25, "redundant", true, 1200978823, 80453, 0, 885},
		{25, "blest", true, 1232926549, 80453, 0, 796},
		{28, "minrtt", true, 398575982, 124904, 0, 359},
		{28, "redundant", true, 412500192, 124904, 0, 485},
		{28, "blest", true, 398575982, 124904, 0, 359},
		{38, "minrtt", true, 518763446, 208875, 0, 692},
		{38, "redundant", true, 569423888, 208875, 0, 1951},
		{38, "blest", true, 518763446, 208875, 0, 692},
	} {
		sc := GenScenario(want.seed)
		sc.Scheduler = want.sched
		var h *Harness
		rep := RunScenario(sc, func(hh *Harness) { h = hh })
		if rep.Completed != want.completed || rep.CompletedAt != want.completedAt ||
			rep.Delivered != want.delivered || rep.Count != want.count ||
			h.Sim.Processed() != want.events {
			t.Errorf("seed %d %s: completed=%v at=%d delivered=%d violations=%d events=%d, recorded %+v",
				want.seed, want.sched, rep.Completed, int64(rep.CompletedAt), rep.Delivered,
				rep.Count, h.Sim.Processed(), want)
		}
	}
}
