package cc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeFlow is a controllable cc.Flow for unit tests.
type fakeFlow struct {
	cwnd        float64
	srtt        float64
	established bool
	l1, l2      int64
}

func (f *fakeFlow) Cwnd() float64                { return f.cwnd }
func (f *fakeFlow) SRTT() float64                { return f.srtt }
func (f *fakeFlow) Established() bool            { return f.established }
func (f *fakeFlow) AckedSinceLoss() int64        { return f.l1 }
func (f *fakeFlow) AckedPrevLossInterval() int64 { return f.l2 }

func flows(fs ...*fakeFlow) []Flow {
	out := make([]Flow, len(fs))
	for i, f := range fs {
		out[i] = f
	}
	return out
}

func TestNew(t *testing.T) {
	for _, name := range Names() {
		c, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, c.Name())
		}
	}
	if c, err := New("lia"); err != nil || c.Name() != "coupled" {
		t.Error("alias lia not accepted")
	}
	if c, err := New(""); err != nil || c.Name() != "coupled" {
		t.Error(`New("") is not the default, coupled`)
	}
	if _, err := New("cubic"); err == nil {
		t.Error("unknown controller accepted")
	}
}

func TestRenoIncreaseIsOnePacketPerRTT(t *testing.T) {
	f := &fakeFlow{cwnd: 10, srtt: 0.05, established: true}
	fs := flows(f)
	// w ACKs of one packet each should add ~1 packet total.
	var total float64
	for i := 0; i < 10; i++ {
		total += (Reno{}).Increase(fs, 0, 1)
	}
	if math.Abs(total-1.0) > 1e-9 {
		t.Errorf("reno per-RTT increase = %f, want 1", total)
	}
}

func TestAllControllersHalveOnLoss(t *testing.T) {
	for _, name := range Names() {
		c, _ := New(name)
		f := &fakeFlow{cwnd: 20, srtt: 0.05, established: true}
		if got := c.OnLoss(flows(f), 0); got != 10 {
			t.Errorf("%s.OnLoss(20) = %f, want 10", name, got)
		}
		f.cwnd = 1.2
		if got := c.OnLoss(flows(f), 0); got != 1 {
			t.Errorf("%s.OnLoss(1.2) = %f, want floor 1", name, got)
		}
	}
}

func TestCoupledReducesToRenoForSingleFlow(t *testing.T) {
	f := &fakeFlow{cwnd: 17, srtt: 0.08, established: true}
	fs := flows(f)
	r := (Reno{}).Increase(fs, 0, 1)
	c := (Coupled{}).Increase(fs, 0, 1)
	o := (OLIA{}).Increase(fs, 0, 1)
	if math.Abs(r-c) > 1e-12 {
		t.Errorf("coupled single-flow %g != reno %g", c, r)
	}
	if math.Abs(r-o) > 1e-12 {
		t.Errorf("olia single-flow %g != reno %g", o, r)
	}
}

func TestCoupledNeverExceedsReno(t *testing.T) {
	// RFC 6356: the min() caps any flow's increase at the uncoupled
	// TCP increase.
	f := func(w1, w2 uint16, r1, r2 uint8) bool {
		a := &fakeFlow{cwnd: 1 + float64(w1%500), srtt: 0.01 + float64(r1)/100, established: true}
		b := &fakeFlow{cwnd: 1 + float64(w2%500), srtt: 0.01 + float64(r2)/100, established: true}
		fs := flows(a, b)
		for i := range fs {
			inc := (Coupled{}).Increase(fs, i, 1)
			reno := (Reno{}).Increase(fs, i, 1)
			if inc > reno+1e-12 {
				return false
			}
			if inc < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCoupledAggregateMatchesBestPath(t *testing.T) {
	// With equal RTTs, coupled's aggregate increase per round trip
	// should approximate one packet (a single TCP on the best path).
	a := &fakeFlow{cwnd: 30, srtt: 0.05, established: true}
	b := &fakeFlow{cwnd: 30, srtt: 0.05, established: true}
	fs := flows(a, b)
	var total float64
	// One RTT: each flow receives cwnd ACKs.
	for i := 0; i < 30; i++ {
		total += (Coupled{}).Increase(fs, 0, 1)
		total += (Coupled{}).Increase(fs, 1, 1)
	}
	if total < 0.4 || total > 1.2 {
		t.Errorf("coupled aggregate increase per RTT = %f, want ≈1 (single-TCP equivalent)", total)
	}
}

func TestCoupledIgnoresUnestablishedFlows(t *testing.T) {
	a := &fakeFlow{cwnd: 10, srtt: 0.05, established: true}
	b := &fakeFlow{cwnd: 10, srtt: 0.05, established: false} // handshaking
	inc := (Coupled{}).Increase(flows(a, b), 0, 1)
	reno := (Reno{}).Increase(flows(a), 0, 1)
	if math.Abs(inc-reno) > 1e-12 {
		t.Errorf("increase %g with dead sibling, want reno %g", inc, reno)
	}
}

func TestOLIASingleFlowMatchesReno(t *testing.T) {
	f := &fakeFlow{cwnd: 25, srtt: 0.1, established: true, l1: 1 << 20}
	got := (OLIA{}).Increase(flows(f), 0, 1)
	want := 1.0 / 25
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("olia single flow = %g, want %g", got, want)
	}
}

func TestOLIAAlphaShiftsTowardBestUnderusedPath(t *testing.T) {
	// Path a: excellent recent goodput (large l) but small window.
	// Path b: max window. Alpha must be positive for a, negative for b.
	a := &fakeFlow{cwnd: 5, srtt: 0.03, established: true, l1: 10 << 20}
	b := &fakeFlow{cwnd: 50, srtt: 0.03, established: true, l1: 1 << 10}
	fs := flows(a, b)

	alphaA := oliaAlpha([]Flow{a, b}, 2, a)
	alphaB := oliaAlpha([]Flow{a, b}, 2, b)
	if alphaA <= 0 {
		t.Errorf("alpha(best, small-w) = %g, want > 0", alphaA)
	}
	if alphaB >= 0 {
		t.Errorf("alpha(max-w) = %g, want < 0", alphaB)
	}
	// Conservation: transfers cancel.
	if math.Abs(alphaA+alphaB) > 1e-12 {
		t.Errorf("alpha sum = %g, want 0", alphaA+alphaB)
	}
	// And the increase of b never drives the window negative-ward
	// faster than its base term.
	inc := (OLIA{}).Increase(fs, 1, 1)
	if inc < -1 {
		t.Errorf("olia increase %g implausibly negative", inc)
	}
}

func TestOLIAAlphaZeroWhenBestHasMaxWindow(t *testing.T) {
	// The best path already has the max window: no transfer (the
	// "collected" set is empty).
	a := &fakeFlow{cwnd: 50, srtt: 0.03, established: true, l1: 10 << 20}
	b := &fakeFlow{cwnd: 5, srtt: 0.03, established: true, l1: 1 << 10}
	if alpha := oliaAlpha([]Flow{a, b}, 2, a); alpha != 0 {
		t.Errorf("alpha = %g, want 0", alpha)
	}
	if alpha := oliaAlpha([]Flow{a, b}, 2, b); alpha != 0 {
		t.Errorf("alpha = %g, want 0", alpha)
	}
}

func TestOLIAAlphaConservationProperty(t *testing.T) {
	// Sum of alphas across flows is always ~0: OLIA moves window
	// between paths without inflating the total.
	f := func(w1, w2, w3 uint16, l1a, l1b, l1c uint32) bool {
		a := &fakeFlow{cwnd: 1 + float64(w1%300), srtt: 0.02, established: true, l1: int64(l1a)}
		b := &fakeFlow{cwnd: 1 + float64(w2%300), srtt: 0.05, established: true, l1: int64(l1b)}
		c := &fakeFlow{cwnd: 1 + float64(w3%300), srtt: 0.15, established: true, l1: int64(l1c)}
		fs := []Flow{a, b, c}
		sum := oliaAlpha(fs, 3, a) + oliaAlpha(fs, 3, b) + oliaAlpha(fs, 3, c)
		return math.Abs(sum) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestIncreaseScalesWithAckedPackets(t *testing.T) {
	// Delayed ACKs cover 2 packets: increase doubles accordingly.
	for _, name := range Names() {
		c, _ := New(name)
		a := &fakeFlow{cwnd: 20, srtt: 0.05, established: true, l1: 1000}
		b := &fakeFlow{cwnd: 30, srtt: 0.08, established: true, l1: 2000}
		fs := flows(a, b)
		one := c.Increase(fs, 0, 1)
		two := c.Increase(fs, 0, 2)
		if math.Abs(two-2*one) > 1e-9 {
			t.Errorf("%s: Increase(2) = %g, want 2*Increase(1) = %g", name, two, 2*one)
		}
	}
}

// roundRate is the round-level referee driver: equal-RTT paths with
// seeded Bernoulli loss ps[i] per packet. Each round, each path in
// order sends floor(cwnd) packets. A path's round with any loss calls
// OnLoss once and starts a new loss interval (l2 <- l1, l1 <- 0);
// otherwise every packet's ACK calls Increase and adds one MSS to l1.
// It returns each path's mean packets sent per round, that is per RTT.
func roundRate(c Controller, ps []float64, rounds int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	ff := make([]*fakeFlow, len(ps))
	for i := range ff {
		ff[i] = &fakeFlow{cwnd: 10, srtt: 0.1, established: true}
	}
	fs := flows(ff...)
	sent := make([]float64, len(ps))
	for r := 0; r < rounds; r++ {
		for i, f := range ff {
			n := int(f.cwnd)
			sent[i] += float64(n)
			lost := false
			for k := 0; k < n; k++ {
				lost = lost || rng.Float64() < ps[i]
			}
			if lost {
				f.cwnd = c.OnLoss(fs, i)
				f.l2, f.l1 = f.l1, 0
				continue
			}
			for k := 0; k < n; k++ {
				f.cwnd += c.Increase(fs, i, 1)
				f.l1 += 1460
			}
		}
	}
	for i := range sent {
		sent[i] /= float64(rounds)
	}
	return sent
}

// TestRenoMatchesMathis is the first closed-form referee: driven round
// by round, Reno's rate settles within ±15 % of Mathis et al.'s
// √(3/2p) packets per RTT across the loss rates the paths see.
func TestRenoMatchesMathis(t *testing.T) {
	for _, p := range []float64{0.001, 0.005, 0.01, 0.03} {
		mathis := math.Sqrt(3 / (2 * p))
		for seed := int64(1); seed <= 3; seed++ {
			got := roundRate(Reno{}, []float64{p}, 100000, seed)[0]
			if ratio := got / mathis; ratio < 0.85 || ratio > 1.15 {
				t.Errorf("p=%g seed %d: %.2f packets/RTT, %.3f of Mathis's %.2f; want within ±15%%",
					p, seed, got, ratio, mathis)
			}
		}
	}
}

// aggregateOf sums per-path rates and returns the total with path i's
// share of it.
func aggregateOf(rates []float64, i int) (total, share float64) {
	for _, r := range rates {
		total += r
	}
	return total, rates[i] / total
}

// TestRoundDriverRenoDoubles checks the driver itself: uncoupled Reno
// on two identical paths is two independent Reno flows, twice the
// single-path rate.
func TestRoundDriverRenoDoubles(t *testing.T) {
	for _, p := range []float64{0.01, 0.001} {
		for seed := int64(1); seed <= 3; seed++ {
			single := roundRate(Reno{}, []float64{p}, 100000, seed)[0]
			total, _ := aggregateOf(roundRate(Reno{}, []float64{p, p}, 100000, seed), 1)
			if ratio := total / single; ratio < 1.85 || ratio > 2.15 {
				t.Errorf("p=%g seed %d: two Reno paths send %.3f× one path's rate, want 1.85–2.15×", p, seed, ratio)
			}
		}
	}
}

// TestCoupledTakesTheBetterPathsRate is the round-level referee for
// RFC 6356's goals and OLIA's: driven over two equal-RTT paths, the
// coupled aggregate is within ±15 % of what Reno alone gets on the
// better path, and identical paths split the traffic evenly.
func TestCoupledTakesTheBetterPathsRate(t *testing.T) {
	for _, ps := range [][]float64{{0.01, 0.01}, {0.001, 0.001}, {0.001, 0.01}} {
		for seed := int64(1); seed <= 3; seed++ {
			best := roundRate(Reno{}, []float64{math.Min(ps[0], ps[1])}, 100000, seed)[0]
			for _, c := range []Controller{Coupled{}, OLIA{}} {
				total, share := aggregateOf(roundRate(c, ps, 100000, seed), 1)
				if ratio := total / best; ratio < 0.85 || ratio > 1.15 {
					t.Errorf("%s p=%v seed %d: aggregate %.3f× the better path's Reno rate, want within ±15%%",
						c.Name(), ps, seed, ratio)
				}
				if ps[0] == ps[1] && (share < 0.45 || share > 0.55) {
					t.Errorf("%s p=%v seed %d: second path carries %.3f of the traffic, want 0.45–0.55",
						c.Name(), ps, seed, share)
				}
			}
		}
	}
}

// TestOLIAShiftsTrafficOffTheLossierPath: with one path 2×, 3× and 10×
// lossier, OLIA moves more of the traffic off it than coupled does
// (Khalili et al.'s Pareto-optimality fix), nearly all of it at 10×.
func TestOLIAShiftsTrafficOffTheLossierPath(t *testing.T) {
	for _, ps := range [][]float64{{0.005, 0.01}, {0.001, 0.003}, {0.001, 0.01}} {
		for seed := int64(1); seed <= 3; seed++ {
			_, coupled := aggregateOf(roundRate(Coupled{}, ps, 100000, seed), 1)
			_, olia := aggregateOf(roundRate(OLIA{}, ps, 100000, seed), 1)
			if olia >= coupled {
				t.Errorf("p=%v seed %d: OLIA leaves %.3f on the lossier path, coupled %.3f; want OLIA below",
					ps, seed, olia, coupled)
			}
			if ps[1] == 10*ps[0] && olia > 0.10 {
				t.Errorf("p=%v seed %d: OLIA leaves %.3f on the 10× lossier path, want ≤ 0.10", ps, seed, olia)
			}
		}
	}
}
