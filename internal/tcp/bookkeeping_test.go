package tcp

import (
	"fmt"
	"math/rand"
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

// The sender's per-ACK steps used to rescan the whole flight: pipe
// summed every lost record and SACK range, the cumulative-ACK prune
// rewrote the record slice, markSackHolesLost searched the scoreboard
// twice per record and retransmitLost walked every record on every
// trySend. Running sums and cursors replaced them; the scans live on
// below, verbatim, as the oracle the replacements must agree with in
// every state a sender can reach.

func refIsSacked(ranges []seg.SACKBlock, start, end uint32) bool {
	for _, r := range ranges {
		if seg.SeqLEQ(r.Start, start) && seg.SeqGEQ(r.End, end) {
			return true
		}
	}
	return false
}

func refSackedAbove(ranges []seg.SACKBlock, seqn uint32) int64 {
	var n int64
	for _, r := range ranges {
		start, end := r.Start, r.End
		if seg.SeqLT(start, seqn) {
			start = seqn
		}
		if seg.SeqLT(start, end) {
			n += int64(end - start)
		}
	}
	return n
}

func refPipe(recs []txRec, ranges []seg.SACKBlock, sndUna, sndNxt uint32) int64 {
	p := int64(sndNxt - sndUna)
	for _, r := range ranges {
		p -= int64(r.End - r.Start)
	}
	for _, r := range recs {
		if r.lost {
			p -= int64(r.end - r.seq)
		}
	}
	if p < 0 {
		p = 0
	}
	return p
}

// refPrune is the old cumulative-ACK prune: filter every record.
func refPrune(recs []txRec, ack uint32) []txRec {
	var keep []txRec
	for _, r := range recs {
		if seg.SeqLEQ(r.end, ack) {
			continue
		}
		if seg.SeqLT(r.seq, ack) {
			r.seq = ack
		}
		keep = append(keep, r)
	}
	return keep
}

// refMarkSackHolesLost is the old RFC 6675 marking pass, applied to
// recs in place.
func refMarkSackHolesLost(recs []txRec, ranges []seg.SACKBlock, mss int) {
	thresh := 3 * int64(mss)
	for i := range recs {
		r := &recs[i]
		if r.lost || r.rtx > 0 {
			continue
		}
		if refIsSacked(ranges, r.seq, r.end) {
			continue
		}
		if refSackedAbove(ranges, r.end) >= thresh {
			r.lost = true
		}
	}
}

// sentRtx is one retransmitted segment: a FIN has n == 0.
type sentRtx struct {
	seq uint32
	n   int
}

// refRetransmitLost is the old retransmission walk, applied to recs in
// place; it returns the segments it would have emitted, in order.
func refRetransmitLost(recs []txRec, ranges []seg.SACKBlock, sndUna, sndNxt, finSeq uint32, wnd int64, mss int) []sentRtx {
	var sent []sentRtx
	for i := range recs {
		r := &recs[i]
		if !r.lost {
			continue
		}
		if r.seq != sndUna && refPipe(recs, ranges, sndUna, sndNxt) >= wnd {
			return sent
		}
		if refIsSacked(ranges, r.seq, r.end) {
			r.lost = false
			continue
		}
		r.lost = false
		r.rtx++
		if r.end == r.seq+1 && r.seq == finSeq {
			sent = append(sent, sentRtx{r.seq, 0})
			continue
		}
		for start := r.seq; seg.SeqLT(start, r.end); {
			n := int64(r.end - start)
			if n > int64(mss) {
				n = int64(mss)
			}
			sent = append(sent, sentRtx{start, int(n)})
			start += uint32(n)
		}
	}
	return sent
}

// senderHarness drives one established endpoint with hand-made ACKs.
// The host has no route, so what the endpoint sends is dropped at once;
// the BuildOptions hook records the retransmissions on their way out.
type senderHarness struct {
	t    testing.TB
	sim  *sim.Simulator
	ep   *Endpoint
	sent []sentRtx
	step int
}

const harnessPeerISN = 7000

func newSenderHarness(t testing.TB) *senderHarness {
	s := sim.New()
	network := netem.NewNetwork(s)
	host := network.NewHost("sender")
	h := &senderHarness{t: t, sim: s}
	h.ep = NewEndpoint(host, network, seg.MakeAddr("10.0.0.2", 40000), seg.MakeAddr("192.168.1.1", 8080),
		DefaultConfig(), sim.NewRNG(9))
	h.ep.BuildOptions = func(sg *seg.Segment, kind SegKind) {
		if !sg.Retransmit {
			return
		}
		switch kind {
		case KindData:
			h.sent = append(h.sent, sentRtx{sg.Seq, sg.PayloadLen})
		case KindFin:
			h.sent = append(h.sent, sentRtx{sg.Seq, 0})
		}
	}
	h.ep.Connect()
	synack := &seg.Segment{Flags: seg.SYN | seg.ACK, Seq: harnessPeerISN, Ack: h.ep.iss + 1, Window: 0xFFFF}
	synack.AddWindowScale(seg.WindowScaleOption{Shift: 8})
	h.ep.Receive(synack)
	if h.ep.state != StateEstablished {
		t.Fatalf("harness handshake left the endpoint in %v", h.ep.state)
	}
	return h
}

func (h *senderHarness) records() []txRec {
	return append([]txRec(nil), h.ep.inflight.Items()...)
}

// ack delivers a pure ACK carrying up to three SACK blocks.
func (h *senderHarness) ack(ack uint32, blocks []seg.SACKBlock) {
	s := &seg.Segment{Flags: seg.ACK, Seq: harnessPeerISN + 1, Ack: ack, Window: 0xFFFF}
	if len(blocks) > 0 {
		s.AddSACK(blocks)
	}
	before, oldUna := h.records(), h.ep.sndUna
	h.ep.Receive(s)
	if !seg.SeqGT(ack, oldUna) || h.ep.sndUna != ack || h.ep.state == StateClosed {
		return
	}
	// The ACK moved sndUna: the survivors are what the old filter
	// keeps, ahead of whatever the freed window let trySend add.
	want, got := refPrune(before, ack), h.ep.inflight.Items()
	if len(got) < len(want) {
		h.t.Fatalf("step %d: ack %d left %d records, the filter keeps %d", h.step, ack, len(got), len(want))
	}
	for i, w := range want {
		if got[i].seq != w.seq || got[i].end != w.end {
			h.t.Fatalf("step %d: ack %d: record %d is [%d,%d), the filter keeps [%d,%d)",
				h.step, ack, i, got[i].seq, got[i].end, w.seq, w.end)
		}
	}
}

// sackBlocks picks n blocks aligned to in-flight records above the
// first (a SACK block never starts at the cumulative ACK point).
func (h *senderHarness) sackBlocks(a, b byte, n int) []seg.SACKBlock {
	recs := h.ep.inflight.Items()
	if len(recs) < 2 {
		return nil
	}
	var blocks []seg.SACKBlock
	for i := 0; i < n; i++ {
		lo := 1 + (int(a)+i*int(b|1))%(len(recs)-1)
		hi := min(lo+int(b>>4)%4, len(recs)-1)
		blk := seg.SACKBlock{Start: recs[lo].seq, End: recs[hi].end}
		if b&8 != 0 && blk.End-blk.Start > 2 {
			blk.Start++ // leave the first record of the block short of covered
		}
		blocks = append(blocks, blk)
	}
	return blocks
}

// apply decodes and runs one three-byte operation.
func (h *senderHarness) apply(op, a, b byte) {
	e := h.ep
	recs := e.inflight.Items()
	switch op % 8 {
	case 0: // application write
		e.Write((int(a) + 1) * 97 * (int(b)%8 + 1))
	case 1: // cumulative ACK to a record boundary
		if len(recs) > 0 {
			h.ack(recs[int(a)%len(recs)].end, nil)
		}
	case 2: // cumulative ACK into the middle of a record
		if len(recs) > 0 {
			r := recs[int(a)%len(recs)]
			h.ack(r.seq+1+uint32(b)%(r.end-r.seq), nil)
		}
	case 3: // duplicate ACK with 1-3 SACK blocks
		if len(recs) > 0 {
			h.ack(e.sndUna, h.sackBlocks(a, b, int(b)%3+1))
		}
	case 4: // bare duplicate ACK
		if len(recs) > 0 {
			h.ack(e.sndUna, nil)
		}
	case 5: // forward ACK that also carries SACK blocks
		if len(recs) > 0 {
			r := recs[int(a)%len(recs)%4]
			h.ack(r.end, h.sackBlocks(b, a, int(a)%3+1))
		}
	case 6: // retransmission timeout
		if e.sndUna != e.sndNxt {
			e.onRTO()
		}
	case 7: // let virtual time pass (timers may fire), or close
		if a == 0xFF {
			e.Close()
		} else {
			h.sim.RunUntil(h.sim.Now() + sim.Time(a)*sim.Millisecond)
		}
	}
}

// check compares the running state with the scans it replaced, then
// runs the marking and retransmission passes once more against their
// old formulations. The extra passes are ones a further duplicate ACK
// would run anyway, so the endpoint stays on a reachable path.
func (h *senderHarness) check() {
	e := h.ep
	if e.state == StateClosed {
		return
	}
	fail := func(format string, args ...any) {
		h.t.Helper()
		h.t.Fatalf("step %d (%v): %s", h.step, e, fmt.Sprintf(format, args...))
	}
	if err := e.CheckInvariants(); err != nil {
		fail("%v", err)
	}
	if got, want := e.pipe(), refPipe(e.inflight.Items(), e.board.ranges, e.sndUna, e.sndNxt); got != want {
		fail("pipe() = %d, the scan gives %d", got, want)
	}
	sameRecords := func(pass string, want []txRec) {
		h.t.Helper()
		got := e.inflight.Items()
		if len(got) != len(want) {
			fail("%s: %d records, reference has %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i].lost != want[i].lost || got[i].rtx != want[i].rtx {
				fail("%s: record %d [%d,%d) lost=%v rtx=%d, reference lost=%v rtx=%d", pass, i,
					got[i].seq, got[i].end, got[i].lost, got[i].rtx, want[i].lost, want[i].rtx)
			}
		}
	}
	if e.inRecovery {
		want := h.records()
		refMarkSackHolesLost(want, e.board.ranges, e.cfg.MSS)
		e.markSackHolesLost()
		sameRecords("markSackHolesLost", want)
	}
	want := h.records()
	wantSent := refRetransmitLost(want, e.board.ranges, e.sndUna, e.sndNxt, e.finSeq, e.cwndBytes(), e.cfg.MSS)
	h.sent = h.sent[:0]
	e.retransmitLost()
	sameRecords("retransmitLost", want)
	if len(h.sent) != len(wantSent) {
		fail("retransmitLost sent %v, reference sends %v", h.sent, wantSent)
	}
	for i := range wantSent {
		if h.sent[i] != wantSent[i] {
			fail("retransmitLost sent %v, reference sends %v", h.sent, wantSent)
		}
	}
	if err := e.CheckInvariants(); err != nil {
		fail("after the extra passes: %v", err)
	}
}

func (h *senderHarness) run(in []byte) {
	for ; len(in) >= 3; in = in[3:] {
		h.step++
		h.apply(in[0], in[1], in[2])
		h.check()
	}
}

// FuzzSenderBookkeeping drives a sender with a byte-coded stream of
// writes, cumulative ACKs (to and into record boundaries), duplicate
// ACKs with one to three SACK blocks, timeouts and pauses, and after
// every operation holds pipe, the lost marks and the retransmission
// sequence against the linear scans they replaced.
func FuzzSenderBookkeeping(f *testing.F) {
	// A window of data, three SACKed stretches, recovery by partial ACKs.
	f.Add([]byte{0, 255, 7, 0, 255, 7, 3, 4, 0x12, 3, 9, 0x21, 3, 14, 0x32, 4, 0, 0, 2, 0, 50, 1, 2, 0, 1, 5, 0, 5, 1, 9})
	// Timeout with a populated scoreboard, then go-back-N by single ACKs.
	f.Add([]byte{0, 200, 3, 3, 2, 0x10, 3, 6, 0x20, 6, 0, 0, 1, 0, 0, 1, 0, 0, 6, 0, 0, 1, 1, 0, 7, 250, 0})
	// Blocks that stop short of a record, and an ACK into one.
	f.Add([]byte{0, 90, 1, 0, 90, 1, 3, 1, 0x18, 3, 3, 0x2b, 4, 0, 0, 4, 0, 0, 2, 1, 200, 5, 2, 7, 5, 3, 1})
	// Close with data outstanding: the FIN record is lost and resent.
	f.Add([]byte{0, 10, 0, 7, 255, 0, 6, 0, 0, 6, 0, 0, 1, 0, 0, 7, 255, 0, 6, 0, 0, 1, 9, 0, 1, 9, 0})
	// Small writes: runt records, many boundaries.
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 2, 0, 0, 3, 0, 3, 1, 0x01, 4, 0, 0, 4, 0, 0, 2, 0, 3, 1, 1, 0, 6, 0, 0})

	f.Fuzz(func(t *testing.T, in []byte) {
		newSenderHarness(t).run(in)
	})
}

// TestSenderBookkeepingRandomStreams runs the fuzz harness over seeded
// random operation streams, so plain `go test` covers long recoveries
// with hundreds of records in flight as well as the corpus does short
// ones.
func TestSenderBookkeepingRandomStreams(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := make([]byte, 3*400)
		rng.Read(in)
		// Bias toward the interesting mix: mostly SACKs and ACKs over a
		// large flight, few timeouts and pauses.
		for i := 0; i < len(in); i += 3 {
			switch r := rng.Intn(20); {
			case r < 3:
				in[i] = 0
			case r < 10:
				in[i] = 3
			case r < 12:
				in[i] = 4
			case r < 15:
				in[i] = 5
			case r < 17:
				in[i] = byte(1 + rng.Intn(2))
			}
		}
		h := newSenderHarness(t)
		h.run(in)
	}
}

// TestInsertRangeCountsNewBytes pins the byte count insertRange
// reports — the increment behind TotalSacked and BufferedBytes — to
// the change in the set's measure, and the binary-searched coverage
// test to its linear predecessor.
func TestInsertRangeCountsNewBytes(t *testing.T) {
	for _, base := range []uint32{0, 1 << 20, 0xffff_ff00} {
		rng := rand.New(rand.NewSource(int64(base) + 3))
		var rs []seg.SACKBlock
		var total int64
		for step := 0; step < 3000; step++ {
			start := base + uint32(rng.Intn(6000))
			blk := seg.SACKBlock{Start: start, End: start + uint32(1+rng.Intn(300))}
			var added int64
			rs, added = insertRange(rs, blk)
			total += added
			var measure int64
			for _, r := range rs {
				measure += int64(r.End - r.Start)
			}
			if total != measure {
				t.Fatalf("base %#x step %d: counted %d bytes, ranges hold %d after %v", base, step, total, measure, blk)
			}
			qs := base + uint32(rng.Intn(6000))
			qe := qs + uint32(1+rng.Intn(300))
			if got, want := rangesCover(rs, qs, qe), refIsSacked(rs, qs, qe); got != want {
				t.Fatalf("base %#x step %d: rangesCover(%d,%d) = %v, linear scan says %v in %v", base, step, qs, qe, got, want, rs)
			}
		}
	}
}

// TestLossBoundMatchesSackedAbove checks the one-comparison form of
// the RFC 6675 test: SackedAbove(x) >= thresh exactly when x is at or
// below lossBound(thresh).
func TestLossBoundMatchesSackedAbove(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		var b sackScoreboard
		base := uint32(rng.Intn(2)) * 0xffff_f000
		for i, n := 0, rng.Intn(8); i < n; i++ {
			start := base + uint32(rng.Intn(4000))
			b.Add(seg.SACKBlock{Start: start, End: start + uint32(1+rng.Intn(500))})
		}
		thresh := int64(1 + rng.Intn(900))
		bound, ok := b.lossBound(thresh)
		if ok != (b.TotalSacked() >= thresh) {
			t.Fatalf("lossBound(%d) ok=%v with %d bytes SACKed in %v", thresh, ok, b.TotalSacked(), b.ranges)
		}
		for x := base; x != base+5000; x++ {
			want := refSackedAbove(b.ranges, x) >= thresh
			if got := ok && seg.SeqLEQ(x, bound); got != want {
				t.Fatalf("thresh %d ranges %v: x=%d bound=%d (ok=%v) says %v, SackedAbove says %v",
					thresh, b.ranges, x, bound, ok, got, want)
			}
		}
	}
}
