package tcp

import (
	"fmt"
	"math"

	"mptcplab/internal/seg"
)

// CheckInvariants verifies the endpoint's internal consistency: send
// and receive sequence ordering, congestion-state sanity, and
// scoreboard structure. It is the invariant checker's observation
// point into TCP state and costs nothing unless called.
func (e *Endpoint) CheckInvariants() error {
	if e.state == StateClosed || e.state == StateListen {
		return nil
	}

	// Congestion state: finite, and never below one packet once the
	// connection is initialized.
	if math.IsNaN(e.cwnd) || math.IsInf(e.cwnd, 0) {
		return fmt.Errorf("tcp %v: cwnd is %v", e.Local, e.cwnd)
	}
	if e.cwnd < 0.5 {
		return fmt.Errorf("tcp %v: cwnd %.3f below minimum", e.Local, e.cwnd)
	}
	if math.IsNaN(e.ssthresh) || e.ssthresh <= 0 {
		return fmt.Errorf("tcp %v: ssthresh %v out of range", e.Local, e.ssthresh)
	}
	if e.rwnd < 0 {
		return fmt.Errorf("tcp %v: negative peer window %d", e.Local, e.rwnd)
	}

	// Send space: iss <= una <= nxt <= bufEnd (+1 for a queued FIN).
	if !seg.SeqLEQ(e.sndUna, e.sndNxt) {
		return fmt.Errorf("tcp %v: sndUna %d beyond sndNxt %d", e.Local, e.sndUna, e.sndNxt)
	}
	limit := e.sndBufEnd
	if e.finQueued {
		limit++
	}
	if !seg.SeqLEQ(e.sndNxt, limit) {
		return fmt.Errorf("tcp %v: sndNxt %d beyond send buffer end %d", e.Local, e.sndNxt, limit)
	}

	// In-flight ranges: sorted, disjoint, within (una, nxt]; the running
	// lost totals equal what the marks add up to.
	prev := e.sndUna
	var lostBytes int64
	lostCount := 0
	for i, r := range e.inflight.Items() {
		if !seg.SeqLT(r.seq, r.end) {
			return fmt.Errorf("tcp %v: inflight[%d] empty [%d,%d)", e.Local, i, r.seq, r.end)
		}
		if !seg.SeqLEQ(prev, r.seq) {
			return fmt.Errorf("tcp %v: inflight[%d] start %d overlaps previous end %d", e.Local, i, r.seq, prev)
		}
		if !seg.SeqLEQ(r.end, e.sndNxt) {
			return fmt.Errorf("tcp %v: inflight[%d] end %d beyond sndNxt %d", e.Local, i, r.end, e.sndNxt)
		}
		prev = r.end
		if i < e.sackScanned && !r.lost && r.rtx == 0 && !e.board.IsSacked(r.seq, r.end) {
			return fmt.Errorf("tcp %v: inflight[%d] below sackScanned %d is neither lost, retransmitted nor SACKed", e.Local, i, e.sackScanned)
		}
		if r.lost {
			if i < e.lostHint {
				return fmt.Errorf("tcp %v: inflight[%d] is lost below lostHint %d", e.Local, i, e.lostHint)
			}
			lostBytes += int64(r.end - r.seq)
			lostCount++
		}
	}
	if lostBytes != e.lostBytes || lostCount != e.lostCount {
		return fmt.Errorf("tcp %v: lost totals %d bytes / %d records, marks add up to %d / %d",
			e.Local, e.lostBytes, e.lostCount, lostBytes, lostCount)
	}

	// SACK scoreboard: sorted, disjoint, above una, at or below nxt.
	prev = e.sndUna
	var sacked int64
	for i, r := range e.board.ranges {
		if !seg.SeqLT(r.Start, r.End) {
			return fmt.Errorf("tcp %v: sack range %d empty [%d,%d)", e.Local, i, r.Start, r.End)
		}
		if !seg.SeqLEQ(prev, r.Start) {
			return fmt.Errorf("tcp %v: sack range %d start %d overlaps %d", e.Local, i, r.Start, prev)
		}
		if !seg.SeqLEQ(r.End, e.sndNxt) {
			return fmt.Errorf("tcp %v: sack range %d end %d beyond sndNxt %d", e.Local, i, r.End, e.sndNxt)
		}
		prev = r.End
		sacked += int64(r.End - r.Start)
	}
	if sacked != e.board.sacked {
		return fmt.Errorf("tcp %v: scoreboard counts %d sacked bytes, ranges hold %d", e.Local, e.board.sacked, sacked)
	}

	// Receive side: out-of-order spans strictly above rcvNxt, sorted,
	// disjoint.
	prev = e.rcvNxt
	var buffered int64
	for i, r := range e.ooo.ranges {
		if !seg.SeqLT(r.Start, r.End) {
			return fmt.Errorf("tcp %v: ooo range %d empty [%d,%d)", e.Local, i, r.Start, r.End)
		}
		if i == 0 && !seg.SeqLT(prev, r.Start) {
			return fmt.Errorf("tcp %v: ooo range starts at %d, not above rcvNxt %d", e.Local, r.Start, prev)
		}
		if !seg.SeqLEQ(prev, r.Start) {
			return fmt.Errorf("tcp %v: ooo range %d start %d overlaps %d", e.Local, i, r.Start, prev)
		}
		prev = r.End
		buffered += int64(r.End - r.Start)
	}
	if buffered != e.ooo.buffered {
		return fmt.Errorf("tcp %v: receiver counts %d out-of-order bytes, ranges hold %d", e.Local, e.ooo.buffered, buffered)
	}
	return nil
}
