package tcp

import (
	"testing"
	"testing/quick"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

func TestRTTEstimatorRFC6298(t *testing.T) {
	e := newRTTEstimator(200 * sim.Millisecond)
	if e.RTO() != sim.Second {
		t.Errorf("initial RTO = %v", e.RTO())
	}
	if e.HasSample() {
		t.Error("HasSample before any sample")
	}
	e.Sample(100 * sim.Millisecond)
	// First sample: srtt = rtt, rttvar = rtt/2, rto = srtt + 4*rttvar.
	if e.SRTT() != 100*sim.Millisecond {
		t.Errorf("SRTT = %v", e.SRTT())
	}
	if e.RTO() != 300*sim.Millisecond {
		t.Errorf("RTO = %v, want 300ms", e.RTO())
	}
	// A steady stream of identical samples collapses rttvar and the
	// floor kicks in.
	for i := 0; i < 100; i++ {
		e.Sample(100 * sim.Millisecond)
	}
	if e.RTO() != 200*sim.Millisecond {
		t.Errorf("steady-state RTO = %v, want MinRTO 200ms", e.RTO())
	}
	e.Backoff()
	if e.RTO() != 400*sim.Millisecond {
		t.Errorf("backed-off RTO = %v", e.RTO())
	}
	for i := 0; i < 20; i++ {
		e.Backoff()
	}
	if e.RTO() != 60*sim.Second {
		t.Errorf("RTO = %v, want MaxRTO cap", e.RTO())
	}
}

func TestRTTEstimatorRejectsNonPositive(t *testing.T) {
	e := newRTTEstimator(200 * sim.Millisecond)
	e.Sample(0)
	if e.SRTT() <= 0 {
		t.Error("zero sample produced non-positive SRTT")
	}
}

func TestScoreboardMerging(t *testing.T) {
	var b sackScoreboard
	b.Add(seg.SACKBlock{Start: 100, End: 200})
	b.Add(seg.SACKBlock{Start: 300, End: 400})
	b.Add(seg.SACKBlock{Start: 150, End: 320}) // bridges
	if !b.IsSacked(100, 400) {
		t.Error("merged range not fully SACKed")
	}
	if b.TotalSacked() != 300 {
		t.Errorf("TotalSacked = %d, want 300", b.TotalSacked())
	}
	if b.IsSacked(50, 150) {
		t.Error("unSACKed prefix reported SACKed")
	}
	if got := b.SackedAbove(250); got != 150 {
		t.Errorf("SackedAbove(250) = %d, want 150", got)
	}
	b.AdvanceUna(350)
	if b.TotalSacked() != 50 {
		t.Errorf("TotalSacked after AdvanceUna = %d, want 50", b.TotalSacked())
	}
	if b.HighestSacked(0) != 400 {
		t.Errorf("HighestSacked = %d", b.HighestSacked(0))
	}
	b.Reset()
	if b.TotalSacked() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestScoreboardInvalidBlockIgnored(t *testing.T) {
	var b sackScoreboard
	b.Add(seg.SACKBlock{Start: 200, End: 100})
	if b.TotalSacked() != 0 {
		t.Error("inverted block accepted")
	}
}

// Property: TotalSacked equals the measure of the union of added
// blocks (computed by brute force over a small universe).
func TestScoreboardUnionProperty(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		var b sackScoreboard
		covered := make([]bool, 256)
		for _, p := range pairs {
			lo, hi := uint32(p[0]), uint32(p[1])
			if lo > hi {
				lo, hi = hi, lo
			}
			b.Add(seg.SACKBlock{Start: lo, End: hi})
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		}
		var want int64
		for _, c := range covered {
			if c {
				want++
			}
		}
		return b.TotalSacked() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestRcvRangesSACKBlockGeneration(t *testing.T) {
	var r rcvRanges
	r.Add(1000, 2000)
	r.Add(3000, 4000)
	blocks := r.Blocks(3)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	// Most recently changed first (RFC 2018).
	if blocks[0].Start != 3000 {
		t.Errorf("first block %v, want the most recent (3000)", blocks[0])
	}
	if !r.Contains(1200, 1300) {
		t.Error("Contains false for held range")
	}
	if r.Contains(2000, 2001) {
		t.Error("Contains true for gap")
	}
	if r.BufferedBytes() != 2000 {
		t.Errorf("BufferedBytes = %d", r.BufferedBytes())
	}
	// Consuming contiguity.
	if got := r.NextContiguous(1000); got != 2000 {
		t.Errorf("NextContiguous(1000) = %d", got)
	}
	if r.BufferedBytes() != 1000 {
		t.Errorf("BufferedBytes after consume = %d", r.BufferedBytes())
	}
}

// Property: after adding arbitrary ranges above rcvNxt, repeatedly
// applying NextContiguous never skips a hole.
func TestRcvRangesNoHoleSkipping(t *testing.T) {
	f := func(spans [][2]uint8) bool {
		var r rcvRanges
		covered := make([]bool, 300)
		for _, sp := range spans {
			lo := uint32(sp[0]) + 10
			hi := uint32(sp[1]) + 10
			if lo > hi {
				lo, hi = hi, lo
			}
			r.Add(lo, hi)
			for i := lo; i < hi; i++ {
				covered[i] = true
			}
		}
		next := r.NextContiguous(10)
		// next must be the first uncovered position at or after 10.
		want := uint32(10)
		for int(want) < len(covered) && covered[want] {
			want++
		}
		return next == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStatsLossRate(t *testing.T) {
	var s Stats
	if s.LossRate() != 0 {
		t.Error("empty stats loss nonzero")
	}
	s.DataPktsSent = 200
	s.DataPktsRetrans = 3
	if got := s.LossRate(); got != 0.015 {
		t.Errorf("LossRate = %v", got)
	}
}

func TestStateString(t *testing.T) {
	if StateEstablished.String() != "ESTABLISHED" {
		t.Error("state name wrong")
	}
	if State(99).String() == "" {
		t.Error("unknown state empty")
	}
}
