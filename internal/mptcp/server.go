package mptcp

import (
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
)

// Server accepts MPTCP connections on a port: SYNs carrying MP_CAPABLE
// create connections, SYNs carrying MP_JOIN attach subflows to them by
// token, and plain-TCP SYNs fall back to a regular endpoint (as the
// paper's Apache does for non-MPTCP clients).
type Server struct {
	cfg Config
	lis *tcp.Listener
	net *netem.Network
	rng *sim.RNG

	// AdvertiseAddrs are secondary server addresses announced via
	// ADD_ADDR after a connection establishes (4-path scenarios).
	AdvertiseAddrs []seg.Addr

	// OnConn is invoked for each new MPTCP connection, at accept time
	// (before the SYN-ACK), so the application can install callbacks.
	OnConn func(c *Conn)

	// OnPlainConn, if set, accepts non-MPTCP clients on the same port
	// with a plain TCP endpoint; otherwise such SYNs are refused.
	OnPlainConn func(ep *tcp.Endpoint) bool

	conns        map[uint32]*Conn          // by either side's token
	pendingJoins map[uint32][]*seg.Segment // joins that raced MP_CAPABLE

	// Stats.
	AcceptedConns, AcceptedJoins, OrphanJoins uint64
}

// NewServer listens for MPTCP on host:port.
func NewServer(host *netem.Host, network *netem.Network, port uint16, cfg Config, rng *sim.RNG) *Server {
	if cfg.Controller == nil {
		cfg = DefaultConfig()
	}
	if cfg.RcvBuf == 0 {
		cfg.RcvBuf = cfg.TCP.RcvBuf
	}
	s := &Server{
		cfg:          cfg,
		net:          network,
		rng:          rng.Child("mptcp-server"),
		conns:        make(map[uint32]*Conn),
		pendingJoins: make(map[uint32][]*seg.Segment),
	}
	s.lis = tcp.Listen(host, network, port, cfg.TCP, s.rng)
	s.lis.OnAccept = s.accept
	return s
}

// Listener exposes the underlying TCP listener.
func (s *Server) Listener() *tcp.Listener { return s.lis }

func (s *Server) accept(ep *tcp.Endpoint, syn *seg.Segment) bool {
	if syn.Has(seg.OptMPCapable) {
		return s.acceptCapable(ep, syn.MPCapable)
	}
	if syn.Has(seg.OptMPJoin) {
		return s.acceptJoin(ep, syn.MPJoin, syn)
	}
	if s.OnPlainConn != nil {
		return s.OnPlainConn(ep)
	}
	return false
}

// acceptCapable creates the server side of a new MPTCP connection.
func (s *Server) acceptCapable(ep *tcp.Endpoint, o seg.MPCapableOption) bool {
	c := &Conn{
		cfg:        s.cfg,
		sched:      NewScheduler(s.cfg.Scheduler),
		net:        s.net,
		host:       nil, // subflows carry their own host binding
		sim:        s.net.Sim(),
		rng:        s.rng.Child("conn"),
		isServer:   true,
		localKey:   uint64(s.rng.Int63()) | 1,
		peerKey:    o.Key,
		server:     s,
		sndNxtData: initialDataSeq,
		sndEndData: initialDataSeq,
	}
	c.initReorder()
	c.StartedAt = c.sim.Now()
	s.conns[c.LocalToken()] = c
	s.conns[token(c.peerKey)] = c
	s.AcceptedConns++

	s.wireSubflow(c, ep, "first")
	if s.OnConn != nil {
		s.OnConn(c)
	}
	// Flush any join SYNs that arrived before the MP_CAPABLE SYN
	// (simultaneous-SYN mode).
	if held := s.pendingJoins[token(c.peerKey)]; len(held) > 0 {
		delete(s.pendingJoins, token(c.peerKey))
		for _, hs := range held {
			s.lis.Incoming(hs)
		}
	}
	return true
}

// acceptJoin attaches a joining subflow to an existing connection, or
// holds the SYN briefly if its MP_CAPABLE sibling hasn't arrived yet.
func (s *Server) acceptJoin(ep *tcp.Endpoint, o seg.MPJoinOption, syn *seg.Segment) bool {
	c, ok := s.conns[o.Token]
	if !ok {
		// Simultaneous SYNs can race ahead of their MP_CAPABLE sibling:
		// park the original SYN and replay it through the listener when
		// the connection appears. Park each 4-tuple once — a client
		// stuck in SYN_SENT retransmits the same join, and replaying
		// both copies would create two server endpoints (with two
		// different ISSs) for one subflow.
		for _, hs := range s.pendingJoins[o.Token] {
			if hs.Src == syn.Src && hs.Dst == syn.Dst {
				return false
			}
		}
		s.OrphanJoins++
		s.pendingJoins[o.Token] = append(s.pendingJoins[o.Token], syn.Clone())
		return false
	}
	s.AcceptedJoins++
	sf := s.wireSubflow(c, ep, "join")
	// Honor the client's B bit: hold this subflow in reserve.
	sf.Backup = o.Backup
	return true
}

// wireSubflow adopts a listener-created endpoint as a connection
// subflow. It mirrors Conn.addSubflow but for passive opens.
func (s *Server) wireSubflow(c *Conn, ep *tcp.Endpoint, label string) *Subflow {
	sf := &Subflow{
		ID:    len(c.subflows),
		Label: label,
		conn:  c,
		EP:    ep,
	}
	sf.dlv.Init(DefaultRateWindow)
	sf.placed.Init(DefaultRateWindow)
	c.subflows = append(c.subflows, sf)
	c.flows = append(c.flows, ep)
	// The listener created ep with the plain-TCP config; as a subflow
	// it must run the connection's (possibly coupled) controller, just
	// like an actively opened subflow.
	ep.SetController(c.cfg.Controller)
	for i, other := range c.subflows {
		other.EP.SetCoupled(c.flows, i)
	}
	ep.BuildOptions = func(sg *seg.Segment, kind tcp.SegKind) { c.buildOptions(sf, sg, kind) }
	ep.SegmentLimit = func(off int64, n int) int { return c.segmentLimit(sf, off, n) }
	ep.WindowOverride = c.sharedWindow
	ep.OnSegmentArrival = func(sg *seg.Segment) { c.onSegment(sf, sg) }
	ep.OnEstablished = func() { c.onSubflowEstablished(sf) }
	ep.OnSendReady = func() { c.pump() }
	ep.OnAcked = func(n int64) { c.noteDelivered(sf, n); c.pump() }
	ep.OnTimeout = func(consecutive int) { c.onSubflowTimeout(sf, consecutive) }
	return sf
}
