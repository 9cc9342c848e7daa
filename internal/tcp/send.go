package tcp

import "mptcplab/internal/seg"

// newSegment builds an outgoing segment with the current ACK state and
// advertised window. The segment comes from the host's pool and is
// surrendered when sent; every newSegment must be paired with a
// transmit.
func (e *Endpoint) newSegment(flags seg.Flags, seqn uint32, payload int) *seg.Segment {
	s := e.host.NewSegment()
	s.Src = e.Local
	s.Dst = e.Remote
	s.Seq = seqn
	s.Flags = flags
	s.PayloadLen = payload
	if flags.Has(seg.ACK) {
		s.Ack = e.rcvNxt
	}
	s.Window = e.wireWindow(flags.Has(seg.SYN))
	return s
}

// transmit hands s to the network over the connection's route, which
// cannot change while it lives: resolved at the first send that finds
// one (a route may be installed after the endpoint is created) and
// held from then on.
func (e *Endpoint) transmit(s *seg.Segment) {
	if e.route == nil {
		e.route = e.host.Route(e.Local.IP, e.Remote.IP)
	}
	e.host.SendVia(e.route, s)
}

// advertisedWindow computes the receive window in bytes, honoring an
// MPTCP shared-buffer override.
func (e *Endpoint) advertisedWindow() int64 {
	if e.WindowOverride != nil {
		w := e.WindowOverride()
		if w < 0 {
			w = 0
		}
		return w
	}
	w := int64(e.cfg.RcvBuf) - e.ooo.BufferedBytes()
	if w < 0 {
		w = 0
	}
	return w
}

// wireWindow converts the advertised window to the 16-bit wire field,
// applying our window-scale shift on non-SYN segments (RFC 7323).
func (e *Endpoint) wireWindow(isSYN bool) uint32 {
	w := e.advertisedWindow()
	if !isSYN {
		w >>= e.cfg.WindowScale
	}
	if w > 0xFFFF {
		w = 0xFFFF
	}
	return uint32(w)
}

// sendSYN emits the initial SYN or SYN-ACK and arms the handshake
// retransmission timer.
func (e *Endpoint) sendSYN(isAck bool) {
	flags := seg.SYN
	kind := KindSYN
	if isAck {
		flags |= seg.ACK
		kind = KindSYNACK
	}
	s := e.newSegment(flags, e.iss, 0)
	s.AddMSS(seg.MSSOption{MSS: uint16(e.cfg.MSS)})
	s.AddWindowScale(seg.WindowScaleOption{Shift: e.cfg.WindowScale})
	s.AddSACKPermitted()
	if e.BuildOptions != nil {
		e.BuildOptions(s, kind)
	}
	e.track(e.iss, e.iss+1)
	e.sndNxt = e.iss + 1
	e.transmit(s)
	e.armRTX()
}

// track records a transmission range for RTT sampling, loss marking,
// and retransmission.
func (e *Endpoint) track(seqn, end uint32) {
	e.inflight.Push(txRec{seq: seqn, end: end, sentAt: e.sim.Now()})
}

// trySend pushes as much data as the windows allow, plus the FIN when
// its turn comes. It is the single exit point of the send path: called
// on app writes, ACK arrivals, and recovery events.
func (e *Endpoint) trySend() {
	if e.state == StateClosed || e.state == StateListen || e.state == StateSynSent || e.state == StateSynRcvd {
		return
	}
	// Retransmit marked-lost ranges first (SACK-based recovery).
	e.retransmitLost()

	wnd := e.cwndBytes() + e.ltmBonus
	if e.rwnd < wnd {
		wnd = e.rwnd
	}
	dataEnd := e.sndBufEnd
	if e.finQueued {
		dataEnd = e.finSeq
	}
	// Sequence-space bound: sndNxt must never pass the advertised right
	// edge (una + rwnd). The pipe gate alone cannot guarantee that —
	// pipe() discounts SACKed data, so under heavy SACK it would let
	// fresh data slip beyond what the peer offered.
	seqSpace := e.rwnd - int64(e.sndNxt-e.sndUna)
	for seg.SeqLT(e.sndNxt, dataEnd) && seqSpace > 0 {
		avail := wnd - e.pipe()
		if avail <= 0 {
			break
		}
		n := int64(dataEnd - e.sndNxt)
		if n > int64(e.cfg.MSS) {
			n = int64(e.cfg.MSS)
		}
		if n > avail {
			// Don't send runt segments when nearly window-limited,
			// except to finish the stream.
			if avail < n && seg.SeqLT(e.sndNxt+uint32(avail), dataEnd) && avail < int64(e.cfg.MSS) {
				break
			}
			n = avail
		}
		if n > seqSpace {
			n = seqSpace
		}
		if n <= 0 {
			break
		}
		if e.SegmentLimit != nil {
			if lim := e.SegmentLimit(e.StreamOffset(e.sndNxt), int(n)); lim > 0 && int64(lim) < n {
				n = int64(lim)
			}
		}
		// Advance sndNxt before emitting: emitData arms the
		// retransmission timer, which must see the data as
		// outstanding even for a lone segment.
		start := e.sndNxt
		e.sndNxt += uint32(n)
		seqSpace -= n
		e.emitData(start, int(n), false)
	}
	// FIN once all data is out.
	if e.finQueued && e.sndNxt == e.finSeq && seg.SeqLT(e.sndNxt, e.sndBufEnd) {
		s := e.newSegment(seg.FIN|seg.ACK, e.finSeq, 0)
		if e.BuildOptions != nil {
			e.BuildOptions(s, KindFin)
		}
		e.track(e.finSeq, e.finSeq+1)
		e.sndNxt = e.finSeq + 1
		e.transmit(s)
		e.delAckPending = 0
		e.delAckTimer.Stop()
		e.armRTX()
	}
}

// emitData sends one payload segment (fresh or retransmission).
func (e *Endpoint) emitData(seqn uint32, n int, isRtx bool) {
	s := e.newSegment(seg.ACK, seqn, n)
	if seg.SeqGEQ(seqn+uint32(n), e.sndBufEnd) || seqn+uint32(n) == e.finSeq {
		s.Flags |= seg.PSH
	}
	s.Retransmit = isRtx
	if e.BuildOptions != nil {
		e.BuildOptions(s, KindData)
	}
	if !isRtx {
		e.track(seqn, seqn+uint32(n))
	}
	e.Stats.DataPktsSent++
	e.Stats.BytesSent += int64(n)
	if isRtx {
		e.Stats.DataPktsRetrans++
		e.Stats.BytesRetrans += int64(n)
	}
	// A data segment also carries our current ACK; cancel delayed ACK.
	e.delAckPending = 0
	e.delAckTimer.Stop()
	e.transmit(s)
	e.armRTX()
}

// retransmitLost resends ranges marked lost, respecting cwnd — except
// for the head of the window, which must always be retransmittable:
// after an RTO the pipe estimate still counts the (presumed-in-flight)
// rest of the window, and gating the head on it would deadlock.
func (e *Endpoint) retransmitLost() {
	wnd := e.cwndBytes()
	recs := e.inflight.Items()
	// No record below lostHint is lost, and lostCount says when the
	// last one has been handled: the walk touches only the stretch of
	// the flight that holds marks, and nothing when there are none.
	i := e.lostHint
	for ; e.lostCount > 0 && i < len(recs); i++ {
		r := &recs[i]
		if !r.lost {
			continue
		}
		if r.seq != e.sndUna && e.pipe() >= wnd {
			break
		}
		e.setLost(i, false)
		if e.board.IsSacked(r.seq, r.end) {
			continue
		}
		r.rtx++
		r.sentAt = e.sim.Now()
		if r.end == r.seq+1 && (r.seq == e.finSeq) {
			// Lost FIN.
			s := e.newSegment(seg.FIN|seg.ACK, r.seq, 0)
			s.Retransmit = true
			if e.BuildOptions != nil {
				e.BuildOptions(s, KindFin)
			}
			e.transmit(s)
			e.armRTX()
			continue
		}
		// Retransmit in MSS-sized pieces.
		start := r.seq
		for seg.SeqLT(start, r.end) {
			n := int64(r.end - start)
			if n > int64(e.cfg.MSS) {
				n = int64(e.cfg.MSS)
			}
			e.emitData(start, int(n), true)
			start += uint32(n)
		}
	}
	e.lostHint = i
}

// armRTX (re)starts the retransmission timer if anything is in flight.
func (e *Endpoint) armRTX() {
	if e.sndUna == e.sndNxt {
		e.rtxTimer.Stop()
		return
	}
	if !e.rtxTimer.Armed() {
		e.rtxTimer.Reset(e.est.RTO())
	}
}

// restartRTX reschedules the timer from now (on forward ACK progress).
func (e *Endpoint) restartRTX() {
	e.rtxTimer.Stop()
	if e.sndUna != e.sndNxt {
		e.rtxTimer.Reset(e.est.RTO())
	}
}

// onRTO handles a retransmission timeout: exponential backoff, window
// collapse to one segment, and go-back-N style recovery driven by the
// scoreboard (unSACKed in-flight data is marked lost).
func (e *Endpoint) onRTO() {
	if e.state == StateClosed || e.state == StateTimeWait {
		return
	}
	e.Stats.Timeouts++
	e.est.Backoff()

	switch e.state {
	case StateSynSent, StateSynRcvd:
		// Retransmit the handshake SYN.
		if recs := e.inflight.Items(); len(recs) > 0 {
			recs[0].rtx++
			recs[0].sentAt = e.sim.Now()
		}
		flags := seg.SYN
		kind := KindSYN
		if e.state == StateSynRcvd {
			flags |= seg.ACK
			kind = KindSYNACK
		}
		s := e.newSegment(flags, e.iss, 0)
		s.Retransmit = true
		s.AddMSS(seg.MSSOption{MSS: uint16(e.cfg.MSS)})
		s.AddWindowScale(seg.WindowScaleOption{Shift: e.cfg.WindowScale})
		s.AddSACKPermitted()
		if e.BuildOptions != nil {
			e.BuildOptions(s, kind)
		}
		e.transmit(s)
		e.rtxTimer.Reset(e.est.RTO())
		return
	}

	e.consecRTO++

	// Loss event for the congestion controller.
	e.noteLossEvent()
	e.ssthresh = e.cwnd / 2
	if e.ssthresh < 2 {
		e.ssthresh = 2
	}
	e.cwnd = 1
	e.inRecovery = false
	e.dupAcks = 0

	// Mark everything un-SACKed as lost (Linux's CA_Loss go-back-N).
	// Only the head goes out now — retransmitLost lets the collapsed
	// window cover one segment — and each returning ACK re-clocks the
	// next hole under slow start. Marking just the head would strand
	// the rest: once the RTO clears inRecovery, no partial-ACK
	// hole-marking runs, so recovery would degenerate to one segment
	// per (Karn-backed-off) timeout. If the timeout was spurious (a
	// delay spike, common on 3G paths), the late ACK covers the whole
	// flight, prunes these records, and nothing is resent.
	e.markHolesLost(0, e.sndNxt, false)
	e.rtxTimer.Reset(e.est.RTO())
	e.trySend()
	if e.OnTimeout != nil {
		e.OnTimeout(e.consecRTO)
	}
}

// noteLossEvent rolls the OLIA inter-loss interval counters.
func (e *Endpoint) noteLossEvent() {
	e.ackedPrevLoss = e.ackedSinceLoss
	e.ackedSinceLoss = 0
}

// sendAck emits a pure ACK immediately.
func (e *Endpoint) sendAck() {
	s := e.newSegment(seg.ACK, e.sndNxt, 0)
	if blocks := e.ooo.AppendBlocks(e.sackScratch[:0], 3); len(blocks) > 0 {
		s.AddSACK(blocks)
	}
	if e.BuildOptions != nil {
		e.BuildOptions(s, KindAck)
	}
	e.Stats.AcksSent++
	e.delAckPending = 0
	e.delAckTimer.Stop()
	e.transmit(s)
}

// scheduleAck implements delayed ACKs: every DelAckCount-th full
// segment (or the flush timer) produces an ACK; out-of-order arrivals
// are acknowledged immediately to feed dupack-based recovery.
func (e *Endpoint) scheduleAck(immediate bool) {
	if immediate {
		e.sendAck()
		return
	}
	e.delAckPending++
	if e.cfg.DelAckCount > 0 && e.delAckPending >= e.cfg.DelAckCount {
		e.sendAck()
		return
	}
	if !e.delAckTimer.Armed() {
		e.delAckTimer.Reset(e.cfg.DelAckTimeout)
	}
}

func (e *Endpoint) flushDelAck() {
	if e.delAckPending > 0 {
		e.sendAck()
	}
}

// PushAck forces an immediate pure ACK — used by MPTCP to flush
// pending options (ADD_ADDR, DataFin, window updates after a shared-
// buffer drain) without waiting for data to ride on.
func (e *Endpoint) PushAck() {
	if e.Established() {
		e.sendAck()
	}
}

// WindowLimited reports whether transmission is currently blocked by
// the peer's receive window rather than by cwnd — the trigger for
// MPTCP's receive-buffer penalization heuristic.
func (e *Endpoint) WindowLimited() bool {
	return e.rwnd < e.cwndBytes() && e.pipe() >= e.rwnd
}

// RwndBinding reports whether the peer's receive window, not cwnd, is
// what bounds SendSpace right now. MPTCP's scheduler consults it: a
// window-bound subflow should be packed to the brim (so a stall is
// observable as such), while a cwnd-bound one defers sub-MSS leftovers
// to keep segments full-sized.
func (e *Endpoint) RwndBinding() bool {
	return e.rwnd < e.cwndBytes()
}
