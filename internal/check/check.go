// Package check is mptcplab's opt-in correctness layer: an online
// protocol-invariant checker that observes every segment through the
// hosts' taps and asserts TCP and MPTCP invariants as the
// simulation runs — sequence-space monotonicity per subflow, SACK
// legality, DSS mapping consistency, advertised-window respect,
// congestion-state sanity (via periodic probes into the stacks'
// CheckInvariants observation points), segment-pool linear ownership,
// and an end-to-end byte-stream oracle.
//
// Nothing in this package runs unless a Checker is attached, so normal
// simulations pay zero cost; with one attached, runs remain
// deterministic and bit-identical because the checker draws no
// randomness and never mutates what it observes.
package check

import (
	"fmt"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/world"
)

// Violation is one detected invariant breach.
type Violation struct {
	At     sim.Time
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%v [%s] %s", v.At, v.Rule, v.Detail)
}

// flowKey identifies one direction of one subflow.
type flowKey struct{ src, dst seg.Addr }

// mapIv is a verified DSS mapping interval in subflow-sequence space:
// [start, end) maps to data sequence start+delta.
type mapIv struct {
	start, end uint32
	delta      uint64
}

// flowState is the checker's wire-level view of one flow direction.
type flowState struct {
	sawSYN bool
	iss    uint32
	wscale uint8 // window-scale shift this flow's sender advertised

	// A 4-tuple may be reused: if a subflow handshake dies, the client
	// retries from the same port with a fresh ISS. prevIss remembers the
	// superseded incarnation so its straggling SYN retransmissions (a
	// half-open server endpoint keeps re-sending its old SYN-ACK) are
	// recognized as stale rather than flagged against the new state.
	prevSet bool
	prevIss uint32

	maxEndSet bool
	maxEnd    uint32 // highest sequence-space End sent, in egress order

	maxAckSet bool
	maxAck    uint32 // highest cumulative ACK this flow has carried

	edgeSet bool
	edge    uint32 // highest advertised right edge for this flow's data

	dackSet    bool
	maxDataAck uint64

	finSeq uint64 // data-level FIN point (DataSeq+Length); 0 = unseen

	maps []mapIv
}

// watcher is one registered stack-state probe.
type watcher struct {
	name   string
	probe  func() error
	active func() bool
}

// Checker accumulates invariant violations for a single simulation.
// Feed it segments from host taps (Arm does), register stack probes
// with WatchEndpoint/WatchConn, and arm periodic probing with
// ArmProbes. It is not safe for concurrent use; like everything else
// it is confined to one simulator goroutine.
type Checker struct {
	// MaxViolations caps how many violations are retained in detail
	// (the count keeps incrementing past it).
	MaxViolations int

	sim        *sim.Simulator
	flows      map[flowKey]*flowState
	violations []Violation
	count      int
	watchers   []watcher
}

// New returns an empty checker bound to the simulator's clock.
func New(s *sim.Simulator) *Checker {
	return &Checker{MaxViolations: 64, sim: s, flows: make(map[flowKey]*flowState)}
}

// Arm returns a checker armed on a whole world: every host observed —
// the server, each client already built and each one built later —,
// every link's pool-ownership panic converted to a violation, and the
// registered stacks probed every interval of simulated time.
func Arm(w *world.World, every sim.Time) *Checker {
	c := New(w.Sim)
	w.OnHost(func(h *netem.Host) {
		name := h.Name
		h.AddTap(func(dir netem.Direction, at sim.Time, s *seg.Segment) { c.OnSegment(name, dir, at, s) })
	})
	for _, l := range w.Links() {
		c.ArmLink(l)
	}
	c.ArmProbes(every)
	return c
}

// Violations returns the retained violations (oldest first).
func (c *Checker) Violations() []Violation { return c.violations }

// Count reports the total number of violations, including any dropped
// past MaxViolations.
func (c *Checker) Count() int { return c.count }

// Summary is what run results carry: the violation count and the
// earliest violation rendered ("" when clean).
func (c *Checker) Summary() (count int, first string) {
	if len(c.violations) > 0 {
		first = c.violations[0].String()
	}
	return c.count, first
}

// Ok reports whether no invariant has been violated.
func (c *Checker) Ok() bool { return c.count == 0 }

// Report records an externally detected violation (e.g. a harness-level
// oracle or a link ownership hook).
func (c *Checker) Report(rule, detail string) {
	c.count++
	if len(c.violations) < c.MaxViolations {
		c.violations = append(c.violations, Violation{At: c.sim.Now(), Rule: rule, Detail: detail})
	}
}

func (c *Checker) violatef(rule, format string, args ...any) {
	c.Report(rule, fmt.Sprintf(format, args...))
}

func (c *Checker) flow(src, dst seg.Addr) *flowState {
	k := flowKey{src, dst}
	f := c.flows[k]
	if f == nil {
		f = &flowState{}
		c.flows[k] = f
	}
	return f
}

func (c *Checker) peekFlow(src, dst seg.Addr) *flowState {
	return c.flows[flowKey{src, dst}]
}

// OnSegment observes one live segment at a host interface; host is the
// observing host's name.
// Egress observations carry the sender's authoritative ordering and
// drive the monotonicity checks; ingress observations harvest window
// advertisements (the sender can only act on ACKs that arrived) and
// re-verify DSS consistency, which is order-independent.
func (c *Checker) OnSegment(host string, dir netem.Direction, at sim.Time, s *seg.Segment) {
	if s.Flags.Has(seg.RST) {
		return
	}
	if dir == netem.Egress {
		c.onEgress(s)
	} else {
		c.onIngress(s)
	}
}

func (c *Checker) onEgress(s *seg.Segment) {
	f := c.flow(s.Src, s.Dst)
	rev := c.peekFlow(s.Dst, s.Src)

	// Sequence-space monotonicity, in the sender's own send order.
	switch {
	case s.Flags.Has(seg.SYN):
		if f.sawSYN && s.Seq != f.iss {
			if f.prevSet && s.Seq == f.prevIss {
				// Straggling retransmit from the superseded incarnation
				// (see flowState.prevIss): its seq/ack numbers live in
				// the old spaces, so skip every check for this segment.
				return
			}
			if s.Retransmit {
				// The stack marks SYN retransmits; a retransmitted SYN
				// must repeat the ISS it originally carried.
				c.violatef("syn-iss-changed", "%v>%v SYN seq %d, initial was %d", s.Src, s.Dst, s.Seq, f.iss)
				break
			}
			// A fresh SYN with a new ISS is a new connection incarnation
			// on a reused 4-tuple. Reset both directions' state — every
			// sequence number learned so far belongs to the old
			// incarnation — and fall through to learn the new one.
			*f = flowState{prevSet: true, prevIss: f.iss}
			if rev != nil && rev.sawSYN {
				*rev = flowState{prevSet: true, prevIss: rev.iss}
			}
		}
		if !f.sawSYN {
			if f.prevSet && s.Seq == f.prevIss && s.Retransmit {
				// The flow was just reset by the peer's new incarnation,
				// and the superseded endpoint's SYN retransmit straggled
				// in first. Don't let it hijack the fresh state.
				return
			}
			f.sawSYN = true
			f.iss = s.Seq
			f.maxEnd, f.maxEndSet = s.End(), true
			if s.Has(seg.OptWindowScale) {
				f.wscale = s.WScale.Shift
			}
		}
	case !f.maxEndSet:
		// Attached mid-connection: learn the high-water mark.
		f.maxEnd, f.maxEndSet = s.End(), true
	case s.PayloadLen > 0 || s.Flags.Has(seg.FIN):
		if s.Retransmit {
			if !seg.SeqLT(s.Seq, f.maxEnd) {
				c.violatef("rtx-beyond-sent", "%v>%v retransmit at %d, but only [..%d) was ever sent", s.Src, s.Dst, s.Seq, f.maxEnd)
			} else if !seg.SeqLEQ(s.End(), f.maxEnd) {
				c.violatef("rtx-extends", "%v>%v retransmit [%d,%d) extends past sent data %d", s.Src, s.Dst, s.Seq, s.End(), f.maxEnd)
			}
		} else if s.Seq != f.maxEnd {
			c.violatef("seq-gap", "%v>%v fresh data at %d, expected contiguous %d", s.Src, s.Dst, s.Seq, f.maxEnd)
		}
		f.maxEnd = seg.SeqMax(f.maxEnd, s.End())
	default:
		// Pure ACK: sits at the left of unsent space.
		if seg.SeqGT(s.Seq, f.maxEnd) {
			c.violatef("seq-gap", "%v>%v pure ACK seq %d beyond sent data %d", s.Src, s.Dst, s.Seq, f.maxEnd)
		}
	}

	// Cumulative ACK discipline.
	if s.Flags.Has(seg.ACK) {
		if f.maxAckSet && seg.SeqLT(s.Ack, f.maxAck) {
			c.violatef("ack-regress", "%v>%v ACK %d after acknowledging %d", s.Src, s.Dst, s.Ack, f.maxAck)
		}
		if !f.maxAckSet || seg.SeqGT(s.Ack, f.maxAck) {
			f.maxAck, f.maxAckSet = s.Ack, true
		}
		if rev != nil && rev.maxEndSet && seg.SeqGT(s.Ack, rev.maxEnd) {
			c.violatef("ack-unsent", "%v>%v acknowledges %d, peer sent only [..%d)", s.Src, s.Dst, s.Ack, rev.maxEnd)
		}
	}

	// SACK legality.
	if blocks := s.SACK(); len(blocks) > 0 {
		for i, b := range blocks {
			if !seg.SeqLT(b.Start, b.End) {
				c.violatef("sack-empty", "%v>%v SACK block %d [%d,%d) empty or inverted", s.Src, s.Dst, i, b.Start, b.End)
				continue
			}
			if s.Flags.Has(seg.ACK) && seg.SeqLT(b.Start, s.Ack) {
				c.violatef("sack-below-ack", "%v>%v SACK [%d,%d) below cumulative ACK %d", s.Src, s.Dst, b.Start, b.End, s.Ack)
			}
			if rev != nil && rev.maxEndSet && seg.SeqGT(b.End, rev.maxEnd) {
				c.violatef("sack-unsent", "%v>%v SACK [%d,%d) above peer's sent data %d", s.Src, s.Dst, b.Start, b.End, rev.maxEnd)
			}
			for j := 0; j < i; j++ {
				a := blocks[j]
				if seg.SeqLT(a.Start, b.End) && seg.SeqLT(b.Start, a.End) {
					c.violatef("sack-overlap", "%v>%v SACK blocks [%d,%d) and [%d,%d) overlap", s.Src, s.Dst, a.Start, a.End, b.Start, b.End)
				}
			}
		}
	}

	// Window respect: payload must stay inside the highest right edge
	// the peer ever advertised to this sender (max over delivered ACKs
	// of ack+window — the MPTCP shared window may legitimately shrink,
	// so the instantaneous edge is not a bound on in-flight data).
	if s.PayloadLen > 0 && f.edgeSet {
		if pe := s.Seq + uint32(s.PayloadLen); seg.SeqGT(pe, f.edge) {
			c.violatef("window-overrun", "%v>%v payload ends at %d, advertised right edge is %d", s.Src, s.Dst, pe, f.edge)
		}
	}

	c.checkDSS(f, s, true)
}

func (c *Checker) onIngress(s *seg.Segment) {
	// Harvest the advertised right edge for the reverse flow: this ACK
	// was delivered, so its sender may now send up to ack+window.
	if s.Flags.Has(seg.ACK) {
		f := c.peekFlow(s.Src, s.Dst)
		if f != nil && f.sawSYN { // need the sender's window scale
			w := uint64(s.Window)
			if !s.Flags.Has(seg.SYN) {
				w <<= f.wscale
			}
			edge := s.Ack + uint32(w)
			rev := c.flow(s.Dst, s.Src)
			if !rev.edgeSet || seg.SeqGT(edge, rev.edge) {
				rev.edge, rev.edgeSet = edge, true
			}
		}
	}
	c.checkDSS(c.flow(s.Src, s.Dst), s, false)
}

// checkDSS verifies data-sequence signaling. Mapping-consistency checks
// run in both directions (they are order-independent, so reordered or
// duplicated deliveries re-verify cleanly); DataAck monotonicity only
// holds in egress order.
func (c *Checker) checkDSS(f *flowState, s *seg.Segment, egress bool) {
	if !s.Has(seg.OptDSS) {
		return
	}
	d := s.DSS
	if d.HasMap && d.Length > 0 {
		if s.PayloadLen > 0 && int(d.Length) != s.PayloadLen {
			c.violatef("dss-length", "%v>%v DSS maps %d bytes, segment carries %d", s.Src, s.Dst, d.Length, s.PayloadLen)
		}
		if egress && f.sawSYN {
			if want := s.Seq - f.iss; d.SubflowSeq != want {
				c.violatef("dss-subflow-seq", "%v>%v DSS subflow seq %d, segment sits at stream position %d", s.Src, s.Dst, d.SubflowSeq, want)
			}
		}
		c.checkMapping(f, s, d)
	}
	if egress && d.HasAck {
		if f.dackSet && d.DataAck < f.maxDataAck {
			c.violatef("dack-regress", "%v>%v data-ACK %d after acknowledging %d", s.Src, s.Dst, d.DataAck, f.maxDataAck)
		}
		if !f.dackSet || d.DataAck > f.maxDataAck {
			f.maxDataAck, f.dackSet = d.DataAck, true
		}
	}
	if d.DataFin {
		fin := d.DataSeq + uint64(d.Length)
		if f.finSeq != 0 && f.finSeq != fin {
			c.violatef("datafin-moved", "%v>%v DATA_FIN at %d, previously announced at %d", s.Src, s.Dst, fin, f.finSeq)
		}
		f.finSeq = fin
	}
}

// checkMapping verifies that the same subflow-sequence range is never
// mapped to two different data sequences: every data-level byte a
// subflow carries must keep one consistent mapping for the connection's
// lifetime, or reassembly silently corrupts the stream.
func (c *Checker) checkMapping(f *flowState, s *seg.Segment, d seg.DSSOption) {
	start, end := d.SubflowSeq, d.SubflowSeq+uint32(d.Length)
	delta := d.DataSeq - uint64(d.SubflowSeq)
	for i := range f.maps {
		iv := &f.maps[i]
		if !seg.SeqLT(start, iv.end) || !seg.SeqLT(iv.start, end) {
			continue // no overlap
		}
		if iv.delta != delta {
			c.violatef("dss-remap", "%v>%v subflow range [%d,%d) remapped: data seq %d, previously %d",
				s.Src, s.Dst, start, end, d.DataSeq, uint64(start)+iv.delta)
			return
		}
		// Consistent overlap: extend the interval in place.
		iv.start = seg.SeqMin(iv.start, start)
		iv.end = seg.SeqMax(iv.end, end)
		return
	}
	// Merge with an adjacent same-delta interval when possible to keep
	// the list short (mappings arrive contiguously in practice).
	for i := range f.maps {
		iv := &f.maps[i]
		if iv.delta == delta && (iv.end == start || end == iv.start) {
			iv.start = seg.SeqMin(iv.start, start)
			iv.end = seg.SeqMax(iv.end, end)
			return
		}
	}
	f.maps = append(f.maps, mapIv{start: start, end: end, delta: delta})
}

// --- Stack-state probes ---

// WatchEndpoint registers a single-path TCP endpoint for periodic
// invariant probing.
func (c *Checker) WatchEndpoint(name string, ep *tcp.Endpoint) {
	c.watchers = append(c.watchers, watcher{
		name:   name,
		probe:  ep.CheckInvariants,
		active: func() bool { return ep.State() != tcp.StateClosed },
	})
}

// Watch registers either kind of world peer.
func (c *Checker) Watch(name string, p world.Peer) {
	if p.Conn != nil {
		c.WatchConn(name, p.Conn)
	} else {
		c.WatchEndpoint(name, p.EP)
	}
}

// WatchConn registers an MPTCP connection: each probe verifies the
// connection's data-sequence bookkeeping plus every current subflow
// endpoint (subflows joining later are picked up automatically).
func (c *Checker) WatchConn(name string, conn *mptcp.Conn) {
	c.watchers = append(c.watchers, watcher{
		name: name,
		probe: func() error {
			if err := conn.CheckInvariants(); err != nil {
				return err
			}
			for _, sf := range conn.Subflows() {
				if err := sf.EP.CheckInvariants(); err != nil {
					return err
				}
			}
			return nil
		},
		active: func() bool {
			for _, sf := range conn.Subflows() {
				if sf.EP.State() != tcp.StateClosed {
					return true
				}
			}
			return len(conn.Subflows()) == 0
		},
	})
}

// RunProbes runs every registered probe once, recording failures.
// Watchers whose stacks have fully closed are dropped after this final
// probe: a fleet run watches thousands of short flows, and without
// pruning every probe tick would keep re-checking long-dead endpoints,
// making the tick cost O(total flows) instead of O(active flows).
func (c *Checker) RunProbes() {
	live := c.watchers[:0]
	for _, w := range c.watchers {
		if err := w.probe(); err != nil {
			c.violatef("state", "%s: %v", w.name, err)
		}
		if w.active() {
			live = append(live, w)
		}
	}
	for i := len(live); i < len(c.watchers); i++ {
		c.watchers[i] = watcher{} // release closed stacks to the GC
	}
	c.watchers = live
}

func (c *Checker) anyActive() bool {
	for _, w := range c.watchers {
		if w.active() {
			return true
		}
	}
	return false
}

// ArmProbes schedules RunProbes every interval of simulated time,
// stopping once every watched stack has fully closed (so a simulator
// run to quiescence still terminates).
func (c *Checker) ArmProbes(every sim.Time) {
	var tick func()
	tick = func() {
		c.RunProbes()
		if c.anyActive() {
			c.sim.At(c.sim.Now()+every, "check.probe", tick)
		}
	}
	c.sim.At(c.sim.Now()+every, "check.probe", tick)
}

// ArmLink converts a link's pool-ownership panic into a recorded
// violation, so the fuzzer can shrink ownership bugs like any other.
func (c *Checker) ArmLink(l *netem.Link) {
	l.OnBadOwnership = func(link string, s *seg.Segment) {
		c.violatef("pool-ownership", "link %s: in-flight segment recycled before arrival (%v)", link, s)
	}
}

// CheckTransfer runs the end-to-end byte-stream oracle over one
// direction of an MPTCP transfer: the receiver must never deliver more
// than the sender wrote, and a completed transfer must deliver exactly
// the written byte count, in order (the reorder buffer's accounting
// invariants, verified here and by probes, rule out duplication and
// gaps below the delivery point). Final stack invariants run too.
func (c *Checker) CheckTransfer(name string, tx, rx *mptcp.Conn, complete bool) {
	wrote, got := tx.BytesWritten(), rx.Reorder().Delivered
	if got > wrote {
		c.violatef("oracle", "%s: delivered %d bytes, sender wrote only %d", name, got, wrote)
	} else if complete && got != wrote {
		c.violatef("oracle", "%s: transfer complete but delivered %d of %d bytes", name, got, wrote)
	}
	if err := tx.CheckInvariants(); err != nil {
		c.violatef("state", "%s sender: %v", name, err)
	}
	if err := rx.CheckInvariants(); err != nil {
		c.violatef("state", "%s receiver: %v", name, err)
	}
}
