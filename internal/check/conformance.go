package check

import (
	"math"

	"mptcplab/internal/chaos"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// The scheduler conformance harness runs every registered packet
// scheduler through an identical battery of deterministic scenarios
// with the invariant checker armed, and measures the path-placement
// behavior each scheduler promises: byte split across access paths,
// duplicate-transmission volume, and the longest delivery stall seen
// by the receiver. The battery reuses the fuzzer's Figure-1 harness
// (RunScenario) so every conformance run gets the full wire/DSS rule
// set and the byte-stream oracle for free.

// ConformanceScenario is one battery entry: a fixed, fully explicit
// Scenario (nothing derived from the seed — the seed only feeds link
// RNG streams) under a descriptive name.
type ConformanceScenario struct {
	Name string
	Base Scenario
}

// ConformanceBattery returns the standard scenario battery: steady
// state, asymmetric RTT, a mid-transfer single-path blackout, and a
// handover storm. Every registered scheduler must complete each with
// zero invariant violations; the measured placement behavior feeds
// the scheduler-specific property assertions.
func ConformanceBattery() []ConformanceScenario {
	wifi := PathParams{Rate: 20 * units.Mbps, Delay: 10 * sim.Millisecond, Queue: 256 * units.KB}
	cell := PathParams{Rate: 8 * units.Mbps, Delay: 40 * sim.Millisecond, Queue: 512 * units.KB}
	base := func(seed int64, size int) Scenario {
		return Scenario{Seed: seed, Size: size, RcvBuf: 2 * units.MB, WiFi: wifi, Cell: cell}
	}
	steady := base(101, 2<<20)
	asym := base(102, 1<<20)
	asym.WiFi = PathParams{Rate: 10 * units.Mbps, Delay: 5 * sim.Millisecond, Queue: 256 * units.KB}
	asym.Cell = PathParams{Rate: 10 * units.Mbps, Delay: 80 * sim.Millisecond, Queue: 512 * units.KB}
	// The blackout scenario makes the surviving (cellular) path the
	// capacity workhorse: a redundant scheduler's duplicate stream
	// then stays caught up with the in-order edge, so when WiFi dies
	// mid-transfer the copies already cover the stranded bytes — the
	// zero-stall property under test. (With a slow surviving path the
	// duplicates would lag by the coupled controller's ramp deficit
	// and every scheduler would stall on the catch-up.) minrtt still
	// prefers WiFi — its 10 ms delay beats cellular's 30 ms — so the
	// outage strands real in-flight data on the dead path.
	blackout := base(103, 8<<20)
	blackout.WiFi = PathParams{Rate: 6 * units.Mbps, Delay: 10 * sim.Millisecond, Queue: 128 * units.KB}
	blackout.Cell = PathParams{Rate: 30 * units.Mbps, Delay: 30 * sim.Millisecond, Queue: 512 * units.KB}
	blackout.Faults = []chaos.Event{{Kind: chaos.Outage, Path: chaos.WiFi, At: 1 * sim.Second, Dur: 3 * sim.Second}}
	blackout.Mask = 1
	storm := base(104, 1<<20)
	storm.Faults = []chaos.Event{{Kind: chaos.Flap, Path: chaos.WiFi, At: 500 * sim.Millisecond,
		Dur: 100 * sim.Millisecond, Every: 200 * sim.Millisecond, Count: 5}}
	storm.Mask = 1
	// The fade scenario is the mmWave-blockage shape: the fast path
	// sinks through a deep raised-cosine fade mid-transfer — never
	// administratively down, just starved and lossy — while the slower
	// path stays healthy. A scheduler that keeps trusting the fast
	// path's pre-fade reputation (static weighted's cumulative deficit
	// gate) crawls in lockstep with the faded link for the whole fade;
	// HoL-aware and delivery-rate-adaptive policies must shift to the
	// healthy path and finish within 2x of minrtt.
	fade := base(105, 8<<20)
	fade.WiFi = PathParams{Rate: 20 * units.Mbps, Delay: 10 * sim.Millisecond, Queue: 256 * units.KB}
	fade.Cell = PathParams{Rate: 8 * units.Mbps, Delay: 40 * sim.Millisecond, Queue: 512 * units.KB}
	fade.Faults = []chaos.Event{{Kind: chaos.Fade, Path: chaos.WiFi, At: 1 * sim.Second, Dur: 20 * sim.Second, Depth: 1.0, Steps: 40}}
	fade.Mask = 1
	return []ConformanceScenario{
		{Name: "steady-state", Base: steady},
		{Name: "asymmetric-rtt", Base: asym},
		{Name: "blackout", Base: blackout},
		{Name: "handover-storm", Base: storm},
		{Name: "fade", Base: fade},
	}
}

// ConformanceResult is one scheduler x scenario outcome.
type ConformanceResult struct {
	Scheduler string
	Scenario  string
	Report    Report

	// Sender-side payload bytes per access path (server subflows,
	// classified by the client address they serve).
	WiFiTxBytes int64
	CellTxBytes int64

	// Redundancy accounting: duplicate bytes the sender scheduled and
	// the receiver discarded.
	DupTxBytes int64
	DupRxBytes int64

	// Placement telemetry from the sender: fresh-chunk placements per
	// subflow index and the number of consecutive placements that
	// switched subflow (round-robin alternation shows up here).
	PlaceCounts   []int
	PlaceSwitches int

	// LongestStall is the run's chaos.Monitor longest stall with the
	// stall threshold at one sampling period: 0 when the receiver's
	// in-order delivery edge advanced at every tick until completion,
	// otherwise the span from the last advance to the next. A scheduler
	// that keeps data flowing through a fault reports 0 here; a
	// fault-free run has no monitor and reports 0 too.
	LongestStall sim.Time
}

// Ok reports a violation-free, completed, fully delivered run. The
// delivered count includes the web layer's request/response framing,
// so it must reach at least the payload size.
func (r ConformanceResult) Ok() bool {
	return r.Report.Ok() && r.Report.Completed &&
		r.Report.Delivered >= int64(r.Report.Scenario.Size)
}

// RunConformance executes one battery scenario under the named
// scheduler spec with the checker armed.
func RunConformance(sched string, cs ConformanceScenario) ConformanceResult {
	sc := cs.Base
	sc.Scheduler = sched
	var h *Harness
	rep := RunScenario(sc, func(hh *Harness) {
		h = hh
		if hh.Monitor != nil {
			hh.Monitor.StallAfter = chaos.MonitorPeriod
		}
	})
	res := ConformanceResult{Scheduler: sched, Scenario: cs.Name, Report: rep}
	if rep.Resilience != nil {
		res.LongestStall = sim.Time(math.Round(rep.Resilience.LongestStallS * float64(sim.Second)))
	}
	if h.ServerConn != nil {
		for _, sf := range h.ServerConn.Subflows() {
			if h.IsCell(sf.EP.Remote) {
				res.CellTxBytes += sf.EP.Stats.BytesSent
			} else {
				res.WiFiTxBytes += sf.EP.Stats.BytesSent
			}
		}
		res.DupTxBytes = h.ServerConn.DupTxBytes
		res.PlaceCounts = h.ServerConn.Placements()
		res.PlaceSwitches = h.ServerConn.PlacementSwitches()
	}
	res.DupRxBytes = h.ClientConn.Reorder().DupBytes
	return res
}
