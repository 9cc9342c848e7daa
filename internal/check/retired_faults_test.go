package check

import (
	"slices"
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
)

// The fuzzer's retired fault script: its own six drawn kinds and the
// scheduler that wrote the links for them, kept as the oracle the chaos
// events they became are held to. (The battery-only wifi-fade kind is
// left out: no seed ever drew it.)

type retiredKind int

const (
	retiredWiFiOutage retiredKind = iota
	retiredCellOutage
	retiredBurstLoss     // Bernoulli loss spike on the WiFi path
	retiredChaosWindow   // duplication + extreme reordering on the WiFi path
	retiredRemoveAddr    // client tears an interface down via REMOVE_ADDR
	retiredHandoverStorm // rapid WiFi down/up toggles
	retiredKinds
)

type retiredFault struct {
	Kind retiredKind
	At   sim.Time
	Dur  sim.Time
	Par  float64 // kind-specific intensity
}

// retiredScenario is GenScenario as it drew before its faults became
// chaos events: the scenario without faults, and the retired script.
func retiredScenario(seed int64) (Scenario, []retiredFault) {
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
	var faults []retiredFault
	n := rng.Intn(maxFaults + 1)
	for i := 0; i < n; i++ {
		f := retiredFault{
			Kind: retiredKind(rng.Intn(int(retiredKinds))),
			At:   rng.Duration(0, 4*sim.Second),
			Dur:  rng.Duration(50*sim.Millisecond, 2*sim.Second),
			Par:  rng.Uniform(0.05, 0.5),
		}
		if i == 0 && rng.Bool(0.3) {
			// Bias one fault onto the handshake window.
			f.At = rng.Duration(0, 200*sim.Millisecond)
		}
		faults = append(faults, f)
	}
	return sc, faults
}

// scheduleRetired is the retired scheduleFaults: it turns the script
// into simulator events that write the links and the client directly.
func scheduleRetired(h *Harness, sc Scenario, faults []retiredFault) {
	for _, f := range faults {
		f := f
		switch f.Kind {
		case retiredWiFiOutage:
			h.Sim.At(f.At, "fault.wifi-outage", func() { setDown(h.WiFiUp, h.WiFiDown, true) })
			h.Sim.At(f.At+f.Dur, "fault.wifi-restore", func() { setDown(h.WiFiUp, h.WiFiDown, false) })
		case retiredCellOutage:
			h.Sim.At(f.At, "fault.cell-outage", func() { setDown(h.CellUp, h.CellDown, true) })
			h.Sim.At(f.At+f.Dur, "fault.cell-restore", func() { setDown(h.CellUp, h.CellDown, false) })
		case retiredBurstLoss:
			h.Sim.At(f.At, "fault.burst-loss", func() {
				h.WiFiUp.Loss = netem.BernoulliLoss{P: f.Par}
				h.WiFiDown.Loss = netem.BernoulliLoss{P: f.Par}
			})
			h.Sim.At(f.At+f.Dur, "fault.loss-restore", func() {
				h.WiFiUp.Loss = netem.BernoulliLoss{P: sc.WiFi.Loss}
				h.WiFiDown.Loss = netem.BernoulliLoss{P: sc.WiFi.Loss}
			})
		case retiredChaosWindow:
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
		case retiredRemoveAddr:
			addr := h.CellAddr
			if f.Par > 0.3 {
				addr = h.WiFiAddr
			}
			h.Sim.At(f.At, "fault.remove-addr", func() { h.ClientConn.RemoveLocalAddr(addr) })
		case retiredHandoverStorm:
			toggles := int(f.Dur/(100*sim.Millisecond)) + 1
			if toggles > 10 {
				toggles = 10
			}
			for i := 0; i < toggles; i++ {
				down := i%2 == 0
				h.Sim.At(f.At+sim.Time(i)*100*sim.Millisecond, "fault.handover", func() { setDown(h.WiFiUp, h.WiFiDown, down) })
			}
			// Always come back up after the storm.
			h.Sim.At(f.At+sim.Time(toggles)*100*sim.Millisecond, "fault.handover-end", func() { setDown(h.WiFiUp, h.WiFiDown, false) })
		}
	}
}

// setDown is the retired world.Access.SetWiFiDown / SetCellDown: both
// directions of one path, up link first.
func setDown(up, down *netem.Link, d bool) {
	up.SetDown(d)
	down.SetDown(d)
}

// firstChange returns the first instant at which the chaos events a
// retired script became may act differently from it, and why; -1 and
// "identical" when they never do. That is the first burst-loss start
// (chaos overlays the link's loss where the script replaced it), the
// first remove-addr start (a storm cycle skips an address with no live
// subflow and rejoins at its end), or the earlier end of the first
// overlapping pair of link windows on one path (where the script's
// edge undid the other window). A handover storm's windows are its
// down spans, plus the instant of the no-op "up" an even toggle count
// appended.
func firstChange(faults []retiredFault) (sim.Time, string) {
	type window struct {
		cell       bool
		start, end sim.Time
	}
	var ws []window
	first, class := sim.Time(-1), "identical"
	change := func(at sim.Time, why string) {
		if first < 0 || at < first {
			first, class = at, why
		}
	}
	for _, f := range faults {
		switch f.Kind {
		case retiredBurstLoss:
			change(f.At, "loss")
		case retiredRemoveAddr:
			change(f.At, "remove-addr")
		case retiredWiFiOutage, retiredChaosWindow:
			ws = append(ws, window{false, f.At, f.At + f.Dur})
		case retiredCellOutage:
			ws = append(ws, window{true, f.At, f.At + f.Dur})
		case retiredHandoverStorm:
			toggles := min(int(f.Dur/(100*sim.Millisecond))+1, 10)
			for i := 0; i < toggles; i += 2 {
				at := f.At + sim.Time(i)*100*sim.Millisecond
				ws = append(ws, window{false, at, at + 100*sim.Millisecond})
			}
			if toggles%2 == 0 {
				end := f.At + sim.Time(toggles)*100*sim.Millisecond
				ws = append(ws, window{false, end, end})
			}
		}
	}
	for i, a := range ws {
		for _, b := range ws[i+1:] {
			if a.cell == b.cell && a.start < b.end && b.start < a.end {
				change(min(a.end, b.end), "overlap")
			}
		}
	}
	return first, class
}

// runState is what the oracle compares at a probe instant: the
// client's in-order delivered bytes and every server subflow's
// counters.
type runState struct {
	delivered int64
	server    []tcp.Stats
}

func stateOf(h *Harness) runState {
	st := runState{delivered: h.ClientConn.Reorder().Delivered}
	if h.ServerConn != nil {
		for _, sf := range h.ServerConn.Subflows() {
			st.server = append(st.server, sf.EP.Stats)
		}
	}
	return st
}

// fuzzScheds is the Makefile's FUZZ_SCHEDS.
var fuzzScheds = []string{"minrtt", "roundrobin", "weighted", "redundant", "blest", "adaptive"}

// TestRetiredFaultsOracle holds the chaos events GenScenario draws to
// the retired script they replace, for seeds 1–200 under every
// scheduler the fuzz smoke sweeps. The oracle is RunScenario with mask
// 0, the retired script laid by the bug hook where RunScenario arms its
// chaos. A script no difference reaches must simulate identically, up
// to the deadline; any other must agree 1 ns before its first changed
// instant.
func TestRetiredFaultsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("2400 fuzz runs")
	}
	classes := map[string]int{}
	removes, unused, announced := 0, 0, 0
	for seed := int64(1); seed <= 200; seed++ {
		base, faults := retiredScenario(seed)
		gen := GenScenario(seed)
		if gen.Size != base.Size || gen.WiFi != base.WiFi || gen.Cell != base.Cell ||
			gen.FourPaths != base.FourPaths || gen.Simultaneous != base.Simultaneous ||
			gen.RcvBuf != base.RcvBuf || len(gen.Faults) != len(faults) {
			t.Fatalf("seed %d: GenScenario drew %+v, the retired draw %+v with %d faults", seed, gen, base, len(faults))
		}
		for i, f := range faults {
			if gen.Faults[i].At != f.At {
				t.Fatalf("seed %d fault %d: at %v, retired at %v", seed, i, gen.Faults[i].At, f.At)
			}
		}
		at, class := firstChange(faults)
		classes[class]++
		for _, sched := range fuzzScheds {
			sc := gen
			sc.Scheduler = sched
			var got, want *runState
			// An unchanged script is compared once more at the deadline.
			probeAt := at - 1
			if class == "identical" {
				probeAt = scenarioDeadline
			}
			probe := func(h *Harness, dst **runState) {
				if probeAt >= 0 {
					h.Sim.At(probeAt, "oracle.probe", func() { st := stateOf(h); *dst = &st })
				}
			}
			rep := RunScenario(sc, func(h *Harness) { probe(h, &got) })
			old := sc
			old.Mask = 0
			oracle := RunScenario(old, func(h *Harness) {
				for _, f := range faults {
					if f.Kind != retiredRemoveAddr {
						continue
					}
					addr := h.CellAddr
					if f.Par > 0.3 {
						addr = h.WiFiAddr
					}
					h.Sim.At(f.At, "oracle.remove-addr", func() {
						removes++
						if live, survivor := subflowsBeside(h, addr); !live {
							unused++
							if survivor {
								announced++
							}
						}
					})
				}
				scheduleRetired(h, old, faults)
				probe(h, &want)
			})
			if class == "identical" {
				if rep.Completed != oracle.Completed || rep.CompletedAt != oracle.CompletedAt ||
					rep.Delivered != oracle.Delivered || rep.Count != oracle.Count {
					t.Errorf("seed %d %s (%s): completed=%v at=%v delivered=%d violations=%d, retired script %v at=%v delivered=%d violations=%d",
						seed, sched, class, rep.Completed, rep.CompletedAt, rep.Delivered, rep.Count,
						oracle.Completed, oracle.CompletedAt, oracle.Delivered, oracle.Count)
				}
			}
			if probeAt < 0 {
				continue // changed from the first instant: nothing to compare
			}
			if got == nil || want == nil {
				t.Fatalf("seed %d %s: probe at %v did not fire", seed, sched, probeAt)
			}
			if got.delivered != want.delivered || !slices.Equal(got.server, want.server) {
				t.Errorf("seed %d %s (%s): at %v, delivered %d server %+v; retired script %d %+v",
					seed, sched, class, probeAt, got.delivered, got.server, want.delivered, want.server)
			}
		}
	}
	t.Logf("scripts by first change: %v; remove-addrs %d, %d on an address with no live subflow, %d of those announced",
		classes, removes, unused, announced)
}

// subflowsBeside reports whether the client has a subflow from addr
// that is not closed — an address world.Handover would withdraw — and
// whether another subflow is established, over which RemoveLocalAddr
// announces the removal.
func subflowsBeside(h *Harness, addr seg.Addr) (live, survivor bool) {
	for _, sf := range h.ClientConn.Subflows() {
		if sf.EP.Local == addr {
			live = live || sf.EP.State() != tcp.StateClosed
		} else {
			survivor = survivor || sf.EP.Established()
		}
	}
	return live, survivor
}
