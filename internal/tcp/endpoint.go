// Package tcp implements a complete user-space TCP endpoint on the
// mptcplab simulator: three-way handshake, slow start with a
// configurable initial ssthresh (the paper pins it to 64 KB),
// congestion avoidance via a pluggable cc.Controller, fast
// retransmit/fast recovery with SACK (RFC 2018/6675-style scoreboard),
// RFC 6298 retransmission timeouts with Karn's rule, delayed ACKs,
// window scaling, and the full connection teardown state machine.
//
// The same endpoint serves both as plain single-path TCP (the paper's
// SP-* baselines) and as an MPTCP subflow: the mptcp package attaches
// via the BuildOptions / OnSegmentArrival / WindowOverride hooks and
// couples congestion windows by handing every subflow the same
// cc.Controller and flow set.
//
// Following the paper's server configuration (§3.1), endpoints are
// created fresh for every connection and never cache ssthresh or RTT
// metrics from previous connections to the same destination.
package tcp

import (
	"fmt"

	"mptcplab/internal/cc"
	"mptcplab/internal/fifo"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// State is the TCP connection state.
type State int

// Connection states (RFC 793).
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{
	"CLOSED", "LISTEN", "SYN_SENT", "SYN_RCVD", "ESTABLISHED",
	"FIN_WAIT_1", "FIN_WAIT_2", "CLOSE_WAIT", "CLOSING", "LAST_ACK", "TIME_WAIT",
}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// SegKind tells a BuildOptions hook what kind of segment is being
// assembled, so MPTCP can attach the right option.
type SegKind int

// Segment kinds passed to BuildOptions.
const (
	KindSYN SegKind = iota
	KindSYNACK
	KindAck
	KindData
	KindFin
)

// Config carries the tunables the paper fixes in §3.1.
type Config struct {
	MSS           int             // maximum segment size, bytes
	InitialCwnd   float64         // initial window, packets (Linux default 10)
	SSThresh      units.ByteCount // initial slow-start threshold; 0 = infinity
	RcvBuf        units.ByteCount // receive buffer (8 MB in the paper)
	Controller    cc.Controller   // congestion-avoidance algorithm
	InitialRTO    sim.Time        // RFC 6298 initial RTO (1 s)
	MinRTO        sim.Time        // Linux floors RTO at 200 ms
	MaxRTO        sim.Time
	DelAckTimeout sim.Time // delayed-ACK flush timer
	DelAckCount   int      // ACK every n-th full segment
	WindowScale   uint8    // advertised window shift
	TimeWait      sim.Time // 2MSL linger; short by default to free sims
}

// DefaultConfig mirrors the paper's testbed settings: MSS 1460, IW 10,
// ssthresh 64 KB, 8 MB receive buffer, SACK on, New Reno.
func DefaultConfig() Config {
	return Config{
		MSS:           1460,
		InitialCwnd:   10,
		SSThresh:      64 * units.KB,
		RcvBuf:        8 * units.MB,
		Controller:    cc.Reno{},
		InitialRTO:    sim.Second,
		MinRTO:        200 * sim.Millisecond,
		MaxRTO:        60 * sim.Second,
		DelAckTimeout: 40 * sim.Millisecond,
		DelAckCount:   2,
		WindowScale:   8,
		TimeWait:      500 * sim.Millisecond,
	}
}

// Stats counts an endpoint's lifetime activity. The paper's loss rate
// (§3.3) is DataPktsRetrans / DataPktsSent.
type Stats struct {
	DataPktsSent    uint64
	DataPktsRetrans uint64
	BytesSent       int64
	BytesRetrans    int64
	DataPktsRcvd    uint64
	BytesRcvd       int64
	DupPktsRcvd     uint64
	AcksSent        uint64
	AcksRcvd        uint64
	Timeouts        uint64
	FastRetransmits uint64
	RTTSamples      uint64
}

// LossRate reports retransmitted data packets over data packets sent,
// the paper's per-subflow loss metric.
func (s *Stats) LossRate() float64 {
	if s.DataPktsSent == 0 {
		return 0
	}
	return float64(s.DataPktsRetrans) / float64(s.DataPktsSent)
}

// txRec describes one in-flight transmitted range.
type txRec struct {
	seq, end uint32
	sentAt   sim.Time
	rtx      int  // retransmission count
	lost     bool // marked lost, awaiting retransmission
}

// Endpoint is one side of a TCP connection.
type Endpoint struct {
	Local, Remote seg.Addr

	host  *netem.Host
	route *netem.Route // see transmit
	sim   *sim.Simulator
	cfg   Config

	state State

	// Callbacks (all optional).
	OnEstablished    func()
	OnDeliver        func(n int)                 // in-order payload bytes for the app
	OnSegmentArrival func(s *seg.Segment)        // every arriving payload-bearing segment, pre-processing (MPTCP tap)
	OnAcked          func(n int64)               // cumulative-ACK progress in bytes
	OnSendReady      func()                      // window opened; upper layer may push more
	OnClosed         func()                      // fully closed (or reset)
	OnRTTSample      func(rtt sim.Time)          // Karn-valid RTT samples
	OnTimeout        func(consecutive int)       // after each data RTO (MPTCP reinjection hook)
	BuildOptions     func(*seg.Segment, SegKind) // decorate outgoing segments
	WindowOverride   func() int64                // shared receive-window (MPTCP)
	// SegmentLimit, if set, caps the payload of a fresh data segment
	// starting at stream offset off to at most the returned value (in
	// (0, n]). MPTCP uses it to keep segments within one DSS mapping.
	SegmentLimit func(off int64, n int) int

	// Coupling: the flow set visible to the congestion controller.
	// Defaults to just this endpoint.
	ccFlows []cc.Flow
	ccSelf  int

	// Send state.
	iss       uint32
	sndUna    uint32
	sndNxt    uint32
	sndBufEnd uint32 // sequence just past the last byte the app wrote
	finQueued bool
	finSeq    uint32
	cwnd      float64 // packets
	ssthresh  float64 // packets
	rwnd      int64   // peer's advertised window, bytes
	peerShift uint8

	inRecovery    bool
	recoveryPoint uint32
	dupAcks       int
	ltmBonus      int64 // RFC 3042 limited-transmit allowance, bytes
	board         sackScoreboard
	inflight      fifo.Queue[txRec] // sorted by seq, disjoint, within [sndUna, sndNxt]
	// Running totals over the in-flight records marked lost, so pipe
	// and retransmitLost cost the same at any flight size. setLost and
	// the cumulative-ACK prune are the only writers.
	lostBytes int64
	lostCount int
	lostHint  int // no record at an index below this is marked lost
	// sackScanned counts the leading records markSackHolesLost has
	// dealt with: each is marked lost, retransmitted or SACKed.
	sackScanned int

	est      *rttEstimator
	rtxTimer *sim.Timer

	// OLIA loss-interval bookkeeping.
	ackedSinceLoss int64
	ackedPrevLoss  int64

	// Receive state.
	irs    uint32
	rcvNxt uint32
	ooo    rcvRanges
	// sackScratch backs the SACK blocks of each outgoing ACK; AddSACK
	// copies them into the segment, so reuse across ACKs is safe.
	sackScratch [3]seg.SACKBlock
	finRcvd     bool
	finRcvdSeq  uint32

	delAckPending int
	delAckTimer   *sim.Timer
	twTimer       *sim.Timer

	// Stats is exported for metrics collection.
	Stats Stats
	// HandshakeDone is when the connection reached ESTABLISHED.
	HandshakeDone sim.Time

	closedFired bool
	isnRNG      *sim.RNG
	earlyWrites int // bytes written before the active open
	consecRTO   int // timeouts since the last forward ACK
}

// NewEndpoint creates a closed endpoint bound to (local, remote) on
// host. It registers itself for segment demultiplexing.
func NewEndpoint(host *netem.Host, network *netem.Network, local, remote seg.Addr, cfg Config, rng *sim.RNG) *Endpoint {
	e := &Endpoint{
		Local:  local,
		Remote: remote,
		host:   host,
		sim:    network.Sim(),
		cfg:    cfg,
		state:  StateClosed,
		est:    newRTTEstimator(cfg.InitialRTO, cfg.MinRTO, cfg.MaxRTO),
		isnRNG: rng,
	}
	if e.cfg.Controller == nil {
		e.cfg.Controller = cc.Reno{}
	}
	e.ccFlows = []cc.Flow{e}
	e.ccSelf = 0
	e.rtxTimer = sim.NewTimer(e.sim, "tcp.rtx", e.onRTO)
	e.delAckTimer = sim.NewTimer(e.sim, "tcp.delack", e.flushDelAck)
	e.twTimer = sim.NewTimer(e.sim, "tcp.timewait", e.reapTimeWait)
	host.Bind(local, remote, e)
	return e
}

// SetCoupled installs the shared flow set used by MPTCP's coupled
// controllers; self must be this endpoint's index within flows.
func (e *Endpoint) SetCoupled(flows []cc.Flow, self int) {
	e.ccFlows = flows
	e.ccSelf = self
}

// SetController replaces the congestion-avoidance algorithm. MPTCP
// uses this to adopt listener-accepted endpoints, which are created
// with the listener's plain-TCP config, into a coupled connection.
func (e *Endpoint) SetController(ctrl cc.Controller) {
	if ctrl != nil {
		e.cfg.Controller = ctrl
	}
}

// Config returns the endpoint's configuration.
func (e *Endpoint) Config() Config { return e.cfg }

// State reports the connection state.
func (e *Endpoint) State() State { return e.state }

// Sim exposes the simulator (for upper layers scheduling against it).
func (e *Endpoint) Sim() *sim.Simulator { return e.sim }

// --- cc.Flow implementation ---

// Cwnd reports the congestion window in packets.
func (e *Endpoint) Cwnd() float64 { return e.cwnd }

// SRTT reports the smoothed RTT in seconds (initial RTO before any
// sample, so coupled formulas have something finite to work with).
func (e *Endpoint) SRTT() float64 {
	if !e.est.HasSample() {
		return e.cfg.InitialRTO.Seconds()
	}
	return e.est.SRTT().Seconds()
}

// SRTTTime reports the smoothed RTT as a sim.Time (0 before samples).
func (e *Endpoint) SRTTTime() sim.Time { return e.est.SRTT() }

// Established reports whether the subflow carries data.
func (e *Endpoint) Established() bool {
	return e.state == StateEstablished || e.state == StateCloseWait ||
		e.state == StateFinWait1 || e.state == StateFinWait2
}

// AckedSinceLoss implements cc.Flow for OLIA.
func (e *Endpoint) AckedSinceLoss() int64 { return e.ackedSinceLoss }

// AckedPrevLossInterval implements cc.Flow for OLIA.
func (e *Endpoint) AckedPrevLossInterval() int64 { return e.ackedPrevLoss }

// --- Opening ---

// Connect performs an active open, emitting a SYN.
func (e *Endpoint) Connect() {
	if e.state != StateClosed {
		return
	}
	e.initISS()
	e.state = StateSynSent
	e.sendSYN(false)
}

// accept performs a passive open in response to a SYN (the Listener
// calls this after constructing the endpoint).
func (e *Endpoint) accept(synSeg *seg.Segment) {
	e.initISS()
	e.handleSynOptions(synSeg)
	e.irs = synSeg.Seq
	e.rcvNxt = synSeg.Seq + 1
	e.state = StateSynRcvd
	e.sendSYN(true)
}

func (e *Endpoint) initISS() {
	e.iss = uint32(e.isnRNG.Int63())
	e.sndUna = e.iss
	e.sndNxt = e.iss
	// The SYN occupies one sequence unit; data written before the open
	// (an HTTP request issued while dialing) follows it.
	e.sndBufEnd = e.iss + 1 + uint32(e.earlyWrites)
	e.cwnd = e.cfg.InitialCwnd
	if e.cfg.SSThresh > 0 {
		e.ssthresh = float64(e.cfg.SSThresh) / float64(e.cfg.MSS)
	} else {
		e.ssthresh = 1 << 30 // "infinity"
	}
	e.rwnd = 65535 // until the peer advertises
}

// streamBase is the sequence of the first payload byte.
func (e *Endpoint) streamBase() uint32 { return e.iss + 1 }

// StreamOffset converts an absolute send-space sequence to a byte
// offset in this subflow's payload stream.
func (e *Endpoint) StreamOffset(seqn uint32) int64 {
	return int64(seqn - e.streamBase())
}

// RcvStreamOffset converts a receive-space sequence to a byte offset
// in the peer's payload stream.
func (e *Endpoint) RcvStreamOffset(seqn uint32) int64 {
	return int64(seqn - (e.irs + 1))
}

// --- Application interface ---

// WriteOffset reports the stream offset at which the next Write will
// place its first byte. MPTCP records its DSS mapping at this offset
// *before* calling Write, since Write transmits synchronously.
func (e *Endpoint) WriteOffset() int64 { return e.StreamOffset(e.sndBufEnd) }

// Write appends n abstract bytes to the send stream and starts
// transmission. It returns the stream offset of the first new byte.
func (e *Endpoint) Write(n int) int64 {
	if n <= 0 || e.finQueued {
		return e.StreamOffset(e.sndBufEnd)
	}
	if e.state == StateClosed {
		// Not yet opened: buffer until Connect assigns sequence space.
		off := int64(e.earlyWrites)
		e.earlyWrites += n
		return off
	}
	off := e.StreamOffset(e.sndBufEnd)
	e.sndBufEnd += uint32(n)
	e.trySend()
	return off
}

// Close queues a FIN after any unsent data.
func (e *Endpoint) Close() {
	switch e.state {
	case StateEstablished, StateSynRcvd, StateSynSent:
		if e.finQueued {
			return
		}
		e.finQueued = true
		e.finSeq = e.sndBufEnd
		e.sndBufEnd++
		if e.state == StateEstablished || e.state == StateSynRcvd {
			e.state = StateFinWait1
		}
		e.trySend()
	case StateCloseWait:
		if e.finQueued {
			return
		}
		e.finQueued = true
		e.finSeq = e.sndBufEnd
		e.sndBufEnd++
		e.state = StateLastAck
		e.trySend()
	}
}

// Abort sends a RST and tears the connection down immediately.
func (e *Endpoint) Abort() {
	if e.state != StateClosed {
		rst := e.newSegment(seg.RST|seg.ACK, e.sndNxt, 0)
		e.transmit(rst)
	}
	e.teardown()
}

// UnackedBytes reports bytes written but not yet cumulatively acked
// (including queued-but-unsent).
func (e *Endpoint) UnackedBytes() int64 {
	return int64(e.sndBufEnd - e.sndUna)
}

// UnsentBytes reports bytes written but not yet transmitted once.
func (e *Endpoint) UnsentBytes() int64 {
	return int64(e.sndBufEnd - e.sndNxt)
}

// cwndBytes is the congestion window in bytes.
func (e *Endpoint) cwndBytes() int64 {
	return int64(e.cwnd * float64(e.cfg.MSS))
}

// pipe estimates bytes currently in the network per RFC 6675: in
// flight, minus SACKed, minus marked-lost-not-yet-retransmitted.
func (e *Endpoint) pipe() int64 {
	return max(int64(e.sndNxt-e.sndUna)-e.board.TotalSacked()-e.lostBytes, 0)
}

// SendSpace reports how many new bytes the scheduler could hand this
// subflow right now without overrunning cwnd or the peer window. This
// is what the MPTCP scheduler consults (§2.2: each subflow maintains
// its own congestion window).
func (e *Endpoint) SendSpace() int64 {
	if !e.Established() && e.state != StateSynSent && e.state != StateSynRcvd {
		return 0
	}
	wnd := e.cwndBytes()
	if e.rwnd < wnd {
		wnd = e.rwnd
	}
	space := wnd - e.pipe() - e.UnsentBytes()
	if space < 0 {
		space = 0
	}
	return space
}

// InSlowStart reports whether the subflow is below ssthresh (§4.1's
// small-flow analysis hinges on this).
func (e *Endpoint) InSlowStart() bool { return e.cwnd < e.ssthresh }

// ConsecutiveTimeouts reports RTOs since the last forward ACK — the
// backup-mode scheduler's liveness signal for detecting a dead path.
func (e *Endpoint) ConsecutiveTimeouts() int { return e.consecRTO }

// SsthreshPackets reports the current slow-start threshold.
func (e *Endpoint) SsthreshPackets() float64 { return e.ssthresh }

// PenalizeHalve halves cwnd without a loss event — the v0.86 receive-
// buffer penalization the paper removes for its measurements (§3.1).
func (e *Endpoint) PenalizeHalve() {
	e.cwnd = e.cwnd / 2
	if e.cwnd < 1 {
		e.cwnd = 1
	}
	if e.ssthresh > e.cwnd {
		e.ssthresh = e.cwnd
	}
}

// --- teardown ---

func (e *Endpoint) enterTimeWait() {
	e.state = StateTimeWait
	e.rtxTimer.Stop()
	e.twTimer.Reset(e.cfg.TimeWait)
}

func (e *Endpoint) reapTimeWait() {
	if e.state == StateTimeWait {
		e.teardown()
	}
}

func (e *Endpoint) teardown() {
	if e.state == StateClosed && e.closedFired {
		return
	}
	e.state = StateClosed
	e.rtxTimer.Stop()
	e.delAckTimer.Stop()
	e.twTimer.Stop()
	e.host.Unbind(e.Local, e.Remote)
	if !e.closedFired {
		e.closedFired = true
		if e.OnClosed != nil {
			e.OnClosed()
		}
	}
}

// String renders a debug summary.
func (e *Endpoint) String() string {
	return fmt.Sprintf("tcp(%v->%v %v cwnd=%.1f ssthresh=%.1f una=%d nxt=%d)",
		e.Local, e.Remote, e.state, e.cwnd, e.ssthresh,
		e.sndUna-e.iss, e.sndNxt-e.iss)
}
