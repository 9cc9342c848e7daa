package load

import (
	"strings"
	"testing"

	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// The redundant scheduler sends every byte once per path. That
// redundancy must surface in the dedicated DupTx/DupRx counters and
// NOWHERE else: goodput, delivered bytes, and the retransmission
// percentages measure useful bytes only, so a redundant fleet must
// report the same delivered volume as a minrtt fleet, not double.
func TestRedundantSchedulerAccountingNotInflated(t *testing.T) {
	base := Config{
		Clients:    10,
		Flows:      20,
		Sizes:      FixedSize(256 * units.KB),
		Duration:   10 * sim.Second,
		Drain:      60 * sim.Second,
		Seed:       7,
		SelfCheck:  true,
		Transports: TransportMix{MPTCP: 1},
	}

	minrtt := base
	minrtt.Scheduler = "minrtt"
	redundant := base
	redundant.Scheduler = "redundant"

	rm := Run(minrtt)
	rr := Run(redundant)

	for name, res := range map[string]*Result{"minrtt": rm, "redundant": rr} {
		if res.Violations != 0 {
			t.Fatalf("%s run had %d violations: %s", name, res.Violations, res.FirstViolation)
		}
		if res.Completed != base.Flows {
			t.Fatalf("%s run completed %d of %d flows", name, res.Completed, base.Flows)
		}
	}

	want := int64(base.Flows) * int64(256*units.KB)
	if rm.BytesDelivered != want || rr.BytesDelivered != want {
		t.Errorf("delivered bytes: minrtt %d, redundant %d, want both exactly %d",
			rm.BytesDelivered, rr.BytesDelivered, want)
	}

	// Single-copy scheduling must not register duplicate sends.
	if rm.DupTxBytes != 0 {
		t.Errorf("minrtt DupTxBytes = %d, want 0", rm.DupTxBytes)
	}
	// Redundant duplicates the bulk of the stream once the second
	// subflow joins, and receivers discard roughly that much.
	if rr.DupTxBytes < want/2 {
		t.Errorf("redundant DupTxBytes = %d, want most of the %d delivered bytes duplicated", rr.DupTxBytes, want)
	}
	// Not every scheduled copy reaches the wire — the connection closes
	// once the stream completes, stranding queued duplicates on the
	// slower path — but the receivers must have discarded a real volume.
	if rr.DupRxBytes <= 0 || rr.DupRxBytes > rr.DupTxBytes {
		t.Errorf("redundant DupRxBytes = %d, want in (0, DupTxBytes=%d]", rr.DupRxBytes, rr.DupTxBytes)
	}

	// Duplicates are fresh subflow sends, not TCP retransmissions: the
	// per-path payload totals carry the stream once plus every copy the
	// receivers discarded...
	if sent := rr.WiFiBytes + rr.CellBytes; sent < want+rr.DupRxBytes {
		t.Errorf("redundant per-path sent bytes %d below delivered+discarded %d", sent, want+rr.DupRxBytes)
	}
	// ...while the retransmission counters stay bounded by actual loss,
	// orders of magnitude below the duplicated volume.
	if retrans := rr.WiFiRetrans + rr.CellRetrans; retrans > rr.DupTxBytes/4 {
		t.Errorf("redundant retransmissions %d approach duplicate volume %d — copies miscounted as retransmits",
			retrans, rr.DupTxBytes)
	}

	// Goodput derives from flow size over completion time, so the
	// redundant fleet (bottlenecked by duplicating everything) must not
	// report more aggregate goodput than physically delivered.
	if rr.Goodput.Mean() > 2*rm.Goodput.Mean() {
		t.Errorf("redundant goodput mean %.0f implausibly above minrtt %.0f",
			rr.Goodput.Mean(), rm.Goodput.Mean())
	}
}

// A sweep row produced under each scheduler must carry the scheduler
// in its replay token and re-execute to the identical row.
func TestReplayReproducesSweepRowPerScheduler(t *testing.T) {
	base := Config{
		Clients:   8,
		Duration:  5 * sim.Second,
		Drain:     20 * sim.Second,
		SelfCheck: true,
	}
	scheds := []string{"minrtt", "roundrobin", "weighted", "redundant", "blest", "adaptive"}
	sw := RunSweep(SweepOpts{Base: base, Rates: []float64{2}, Scheds: scheds, Reps: 1, Seed: 23})
	rows := sw.Export()
	if len(rows) != len(scheds) {
		t.Fatalf("exported %d rows, want %d (one per scheduler)", len(rows), len(scheds))
	}
	for i, row := range rows {
		if row.Sched != scheds[i] {
			t.Errorf("row %d sched column %q, want %q", i, row.Sched, scheds[i])
		}
		if !strings.Contains(row.Replay, "sched="+scheds[i]) {
			t.Errorf("row %d replay token %q missing sched=%s", i, row.Replay, scheds[i])
		}
		cfg, err := ParseReplay(row.Replay)
		if err != nil {
			t.Fatalf("ParseReplay(%q): %v", row.Replay, err)
		}
		if cfg.Scheduler != scheds[i] {
			t.Errorf("replayed config scheduler %q, want %q", cfg.Scheduler, scheds[i])
		}
		res := Run(cfg)
		if res.Offered != row.Offered || res.Completed != row.Completed {
			t.Errorf("%s: replay offered/completed %d/%d, row had %d/%d",
				scheds[i], res.Offered, res.Completed, row.Offered, row.Completed)
		}
		if got := res.FCT.Mean(); got != row.FCTMean {
			t.Errorf("%s: replay FCT mean %v, row had %v", scheds[i], got, row.FCTMean)
		}
		if got := res.Goodput.Mean(); got != row.GoodputMean {
			t.Errorf("%s: replay goodput mean %v, row had %v", scheds[i], got, row.GoodputMean)
		}
		if res.DupTxBytes != row.DupTxBytes || res.DupRxBytes != row.DupRxBytes {
			t.Errorf("%s: replay dup tx/rx %d/%d, row had %d/%d",
				scheds[i], res.DupTxBytes, res.DupRxBytes, row.DupTxBytes, row.DupRxBytes)
		}
	}
	// The redundant column must actually have exercised duplication,
	// or the assertions above prove nothing.
	for _, row := range rows {
		if row.Sched == "redundant" && row.DupTxBytes == 0 {
			t.Error("redundant sweep row recorded zero duplicate bytes")
		}
		if row.Sched == "minrtt" && row.DupTxBytes != 0 {
			t.Error("minrtt sweep row recorded duplicate bytes")
		}
	}
}
