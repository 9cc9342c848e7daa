package check

import (
	"strings"
	"testing"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/sim"
)

// TestSchedulerConformance is the conformance suite: every registered
// scheduler runs the identical scenario battery with the invariant
// checker armed. Universal obligations first — zero wire/DSS
// violations and an intact byte stream everywhere — then the
// scheduler-specific placement properties each policy advertises.
func TestSchedulerConformance(t *testing.T) {
	battery := ConformanceBattery()
	results := map[string]map[string]ConformanceResult{}
	for _, sched := range mptcp.SchedulerNames() {
		results[sched] = map[string]ConformanceResult{}
		for _, cs := range battery {
			res := RunConformance(sched, cs)
			results[sched][cs.Name] = res
			t.Logf("%s/%s: fct=%v wifi=%d cell=%d dupTx=%d dupRx=%d stall=%v places=%v switches=%d",
				sched, cs.Name, res.Report.CompletedAt, res.WiFiTxBytes, res.CellTxBytes,
				res.DupTxBytes, res.DupRxBytes, res.LongestStall,
				res.PlaceCounts, res.PlaceSwitches)

			if !res.Report.Completed {
				t.Errorf("%s/%s: transfer did not complete (%d of %d bytes)",
					sched, cs.Name, res.Report.Delivered, cs.Base.Size)
			}
			if res.Report.Delivered < int64(cs.Base.Size) {
				t.Errorf("%s/%s: delivered %d bytes, want at least %d",
					sched, cs.Name, res.Report.Delivered, cs.Base.Size)
			}
			if res.Report.Count != 0 {
				t.Errorf("%s/%s: %d invariant violation(s); first: %v",
					sched, cs.Name, res.Report.Count, res.Report.Violations[0])
			}

			// Single-copy schedulers must never schedule duplicates;
			// redundant must always duplicate once a second path
			// exists. (Receiver-side duplicate discards can appear for
			// single-copy schedulers in faulted scenarios — reinjection
			// races a recovering path — so DupRx is only pinned to zero
			// when no fault fired.)
			if sched == "redundant" {
				if res.DupTxBytes <= 0 {
					t.Errorf("redundant/%s: no duplicate bytes scheduled", cs.Name)
				}
			} else {
				if res.DupTxBytes != 0 {
					t.Errorf("%s/%s: single-copy scheduler scheduled %d duplicate bytes",
						sched, cs.Name, res.DupTxBytes)
				}
				if len(cs.Base.ActiveFaults()) == 0 && res.DupRxBytes != 0 {
					t.Errorf("%s/%s: receiver discarded %d duplicate bytes in a fault-free run",
						sched, cs.Name, res.DupRxBytes)
				}
			}
		}
	}

	// minrtt prefers the faster (lower-RTT) path: on both the steady
	// and asymmetric-RTT scenarios the WiFi path (10 ms / 5 ms OWD vs
	// 40 ms / 80 ms cellular) must carry the clear majority of bytes.
	for _, scen := range []string{"steady-state", "asymmetric-rtt"} {
		r := results["minrtt"][scen]
		if r.WiFiTxBytes <= 2*r.CellTxBytes {
			t.Errorf("minrtt/%s: wifi carried %d vs cell %d — lowest-RTT preference not visible",
				scen, r.WiFiTxBytes, r.CellTxBytes)
		}
	}

	// roundrobin alternates regardless of RTT. A saturating sender
	// fills every congestion window each pump pass, so byte totals
	// converge across single-copy policies — the alternation shows in
	// the placement order: round-robin must switch subflow on most
	// consecutive placements, and far more often than minrtt, whose
	// RTT greed produces long same-path streaks.
	{
		alt := func(r ConformanceResult) float64 {
			total := 0
			for _, n := range r.PlaceCounts {
				total += n
			}
			if total <= 1 {
				return 0
			}
			return float64(r.PlaceSwitches) / float64(total-1)
		}
		rr := results["roundrobin"]["asymmetric-rtt"]
		mr := results["minrtt"]["asymmetric-rtt"]
		rrAlt, mrAlt := alt(rr), alt(mr)
		// The absolute rate sits below 1.0 because the pre-join phase
		// is single-path and align-hold deferrals occasionally skip a
		// turn; 0.3 is still triple what RTT greed produces here.
		if rrAlt < 0.3 {
			t.Errorf("roundrobin/asymmetric-rtt: alternation rate %.2f below 0.3 — not rotating", rrAlt)
		}
		if rrAlt < 2*mrAlt {
			t.Errorf("roundrobin alternation %.2f not clearly above minrtt's %.2f", rrAlt, mrAlt)
		}
		if len(rr.PlaceCounts) < 2 || len(mr.PlaceCounts) < 2 ||
			rr.PlaceCounts[1] < 2*mr.PlaceCounts[1] {
			t.Errorf("roundrobin cell placements %v not clearly above minrtt's %v — rotation should force cellular turns",
				rr.PlaceCounts, mr.PlaceCounts)
		}
	}

	// weighted with explicit 3;1 weights is a gating deficit
	// scheduler: on the equal-rate asymmetric-RTT scenario the WiFi
	// subflow must carry close to three quarters of the payload.
	{
		r := RunConformance("weighted:3;1", battery[1]) // asymmetric-rtt: equal 10 Mbps rates
		if !r.Ok() {
			t.Errorf("weighted:3;1/asymmetric-rtt: completed=%v delivered=%d violations=%d",
				r.Report.Completed, r.Report.Delivered, r.Report.Count)
		}
		total := r.WiFiTxBytes + r.CellTxBytes
		if share := float64(r.WiFiTxBytes) / float64(total); share < 0.65 || share > 0.85 {
			t.Errorf("weighted:3;1/asymmetric-rtt: wifi share %.2f outside [0.65,0.85] for a 3:1 weight ratio",
				share)
		}
	}

	// blest degenerates to minrtt in bulk transfer — the HoL gate only
	// ever *withholds* a slow-path placement minrtt would have made —
	// so on the fault-free scenarios it must place no more chunks on
	// the slow (cellular) path than minrtt does, at no meaningful cost
	// in completion time.
	for _, scen := range []string{"steady-state", "asymmetric-rtt"} {
		bl, mr := results["blest"][scen], results["minrtt"][scen]
		if len(bl.PlaceCounts) < 2 || len(mr.PlaceCounts) < 2 {
			t.Fatalf("blest/%s: missing placement telemetry", scen)
		}
		if bl.PlaceCounts[1] > mr.PlaceCounts[1] {
			t.Errorf("blest/%s: %d cell placements exceed minrtt's %d — the gate should only withhold slow-path picks",
				scen, bl.PlaceCounts[1], mr.PlaceCounts[1])
		}
		if bl.Report.CompletedAt > mr.Report.CompletedAt*3/2 {
			t.Errorf("blest/%s completed at %v, above 1.5x minrtt's %v",
				scen, bl.Report.CompletedAt, mr.Report.CompletedAt)
		}
	}

	// adaptive's live weights must track delivered capacity: on the
	// steady scenario (20 Mbps WiFi vs 8 Mbps cellular) the WiFi path
	// carries the clear majority, the probe rule still exercises the
	// second path, and the re-estimated split costs little next to
	// minrtt.
	{
		ad, mr := results["adaptive"]["steady-state"], results["minrtt"]["steady-state"]
		if ad.WiFiTxBytes <= ad.CellTxBytes {
			t.Errorf("adaptive/steady-state: wifi %d vs cell %d — weights not tracking delivered capacity",
				ad.WiFiTxBytes, ad.CellTxBytes)
		}
		if len(ad.PlaceCounts) < 2 || ad.PlaceCounts[1] == 0 {
			t.Errorf("adaptive/steady-state: placements %v never probed the second path", ad.PlaceCounts)
		}
		if ad.Report.CompletedAt > mr.Report.CompletedAt*3/2 {
			t.Errorf("adaptive/steady-state completed at %v, above 1.5x minrtt's %v",
				ad.Report.CompletedAt, mr.Report.CompletedAt)
		}
	}

	// The fade scenario pins the tentpole property: through a deep
	// mmWave-style blockage fade on the fast path, the HoL-aware (blest)
	// and delivery-rate-adaptive schedulers must finish within 2x of
	// minrtt and strictly beat static weighted, whose cumulative-deficit
	// gate keeps waiting for the faded path and crawls in lockstep with
	// it. The weighted guard below keeps the comparison honest: if a
	// future change teaches weighted to dodge the fade, these
	// assertions stop proving anything and must be revisited.
	{
		min := results["minrtt"]["fade"].Report.CompletedAt
		wgt := results["weighted"]["fade"].Report.CompletedAt
		if min <= 0 || wgt <= 0 {
			t.Fatalf("fade: missing completion times (minrtt=%v weighted=%v)", min, wgt)
		}
		if wgt < 2*min {
			t.Errorf("weighted/fade completed at %v, less than 2x minrtt's %v — the fade no longer hurts static weights and the comparison below is vacuous",
				wgt, min)
		}
		for _, sched := range []string{"blest", "adaptive"} {
			fct := results[sched]["fade"].Report.CompletedAt
			if fct <= 0 {
				t.Fatalf("%s/fade: missing completion time", sched)
			}
			if fct > 2*min {
				t.Errorf("%s/fade completed at %v, above 2x minrtt's %v", sched, fct, min)
			}
			if fct >= wgt {
				t.Errorf("%s/fade completed at %v, not strictly better than weighted's %v", sched, fct, wgt)
			}
		}
	}

	// The headline resilience property: through the 3 s single-path
	// blackout the redundant scheduler's surviving copies keep the
	// receiver's in-order edge moving — zero measured stall — while
	// minrtt stalls until its dead-path detection and reinjection
	// recover the stranded mappings.
	{
		red := results["redundant"]["blackout"]
		if red.LongestStall != 0 {
			t.Errorf("redundant/blackout: longest stall %v, want 0", red.LongestStall)
		}
		min := results["minrtt"]["blackout"]
		if min.LongestStall < 200*sim.Millisecond {
			t.Errorf("minrtt/blackout: longest stall %v — expected a visible stall; the redundant comparison proves nothing",
				min.LongestStall)
		}
	}

	// backup holds its reserve: the cellular subflow joins with the
	// MP_JOIN B bit, so it stays silent while WiFi is healthy and
	// carries the transfer once WiFi dies (Paasch et al.'s policy,
	// paper §7).
	for _, scen := range []string{"steady-state", "asymmetric-rtt"} {
		if r := results["backup"][scen]; r.CellTxBytes != 0 {
			t.Errorf("backup/%s: cell carried %d bytes beside wifi's %d — the backup path is not in reserve",
				scen, r.CellTxBytes, r.WiFiTxBytes)
		}
	}
	if r := results["backup"]["blackout"]; r.CellTxBytes <= r.WiFiTxBytes {
		t.Errorf("backup/blackout: cell carried %d bytes vs wifi's %d — the backup path did not take over",
			r.CellTxBytes, r.WiFiTxBytes)
	}
}

// TestConformanceReplayTokens: every scheduler-tagged scenario renders
// a replay token that reconstructs the same scheduler, and malformed
// scheduler fields are rejected with a one-line error.
func TestConformanceReplayTokens(t *testing.T) {
	for _, sched := range []string{"minrtt", "roundrobin", "weighted:3;1", "redundant", "blest", "adaptive"} {
		sc := GenScenario(7)
		sc.Scheduler = sched
		tok := sc.Replay()
		back, err := ParseReplay(tok)
		if err != nil {
			t.Fatalf("ParseReplay(%q): %v", tok, err)
		}
		if back.Scheduler != sched {
			t.Errorf("token %q round-tripped scheduler %q, want %q", tok, back.Scheduler, sched)
		}
	}
	// A default-scheduler scenario renders the legacy two-field token.
	sc := GenScenario(7)
	tok := sc.Replay()
	if strings.Count(tok, ":") != 1 {
		t.Errorf("default-scheduler token %q is not the legacy seed:mask form", tok)
	}
	if back, err := ParseReplay(tok); err != nil || back.Scheduler != "" {
		t.Errorf("default token %q: sched=%q err=%v", tok, back.Scheduler, err)
	}
	if _, err := ParseReplay("7:f:bogus"); err == nil {
		t.Error("ParseReplay accepted an unknown scheduler field")
	}
}
