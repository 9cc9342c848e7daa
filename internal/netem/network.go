package netem

import (
	"fmt"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

// Handler consumes segments addressed to an established connection.
// The segment is only valid for the duration of the call: the network
// releases it back to its pool when Receive returns, so handlers that
// need it longer must Clone.
type Handler interface {
	Receive(s *seg.Segment)
}

// Listener consumes segments that match a listening port but no
// established connection (i.e. incoming SYNs). The same lifetime rule
// as Handler.Receive applies.
type Listener interface {
	Incoming(s *seg.Segment)
}

// Direction distinguishes tap callbacks.
type Direction int

// Tap directions.
const (
	Egress Direction = iota
	Ingress
)

// Tap observes packets at a host's interfaces, like tcpdump. The
// segment passed in is a private clone; taps may retain it.
type Tap func(dir Direction, at sim.Time, s *seg.Segment)

type connKey struct {
	local, remote seg.Addr
}

// Host owns a set of interface addresses, demultiplexes arriving
// segments to connections and listeners, and injects outgoing segments
// into the network's routes.
type Host struct {
	Name string

	net   *Network
	conns map[connKey]Handler
	// listeners are keyed by port: the paper's server listens on one
	// port across both its interfaces.
	listeners map[uint16]Listener
	taps      []Tap
	rawTaps   []Tap

	// Unmatched counts segments that matched neither a connection nor
	// a listener (e.g. late retransmissions after close).
	Unmatched uint64
}

// NewHost registers a named host with the network.
func (n *Network) NewHost(name string) *Host {
	h := &Host{
		Name:      name,
		net:       n,
		conns:     make(map[connKey]Handler),
		listeners: make(map[uint16]Listener),
	}
	n.hosts = append(n.hosts, h)
	return h
}

// Bind routes segments for the (local, remote) pair to h.
func (h *Host) Bind(local, remote seg.Addr, handler Handler) {
	h.conns[connKey{local, remote}] = handler
}

// Unbind removes a connection binding.
func (h *Host) Unbind(local, remote seg.Addr) {
	delete(h.conns, connKey{local, remote})
}

// Listen routes otherwise-unmatched segments for the port to l.
func (h *Host) Listen(port uint16, l Listener) {
	h.listeners[port] = l
}

// AddTap attaches a capture tap to all of the host's traffic.
func (h *Host) AddTap(t Tap) { h.taps = append(h.taps, t) }

// AddRawTap attaches a zero-copy tap: unlike AddTap, the callback gets
// the live segment, not a clone, so it costs nothing per packet beyond
// the call. Raw taps must not mutate the segment or retain it past the
// callback — it is owned by the network and recycled afterwards. The
// invariant checker uses raw taps to observe every segment online.
func (h *Host) AddRawTap(t Tap) { h.rawTaps = append(h.rawTaps, t) }

func (h *Host) tap(dir Direction, s *seg.Segment) {
	for _, t := range h.rawTaps {
		t(dir, h.net.sim.Now(), s)
	}
	if len(h.taps) == 0 {
		return
	}
	c := s.Clone()
	for _, t := range h.taps {
		t(dir, h.net.sim.Now(), c)
	}
}

// NewSegment returns an empty segment from the network's pool; see
// Network.NewSegment for the ownership rules.
func (h *Host) NewSegment() *seg.Segment { return h.net.pool.Get() }

// Send stamps and transmits a segment from this host. Ownership of s
// passes to the network: the route chain releases it to the pool after
// final delivery or at a drop, so callers must not use it afterwards.
func (h *Host) Send(s *seg.Segment) {
	h.SendVia(h.Route(s.Src.IP, s.Dst.IP), s)
}

// Route resolves the network's route from srcIP to dstIP, nil if none
// is installed yet. The handle follows later AddRoute calls for the
// pair and is dead after Network.Reset, like everything else built on
// the old topology.
func (h *Host) Route(srcIP, dstIP [4]byte) *Route {
	return h.net.routes[routeKey{srcIP, dstIP}]
}

// SendVia is Send for a sender that keeps its resolved Route instead
// of paying the lookup per packet. A nil route counts NoRoute and
// releases the segment.
func (h *Host) SendVia(r *Route, s *seg.Segment) {
	s.SentAt = h.net.sim.Now()
	h.tap(Egress, s)
	if r == nil {
		h.net.NoRoute++
		h.net.pool.Put(s)
		return
	}
	r.start(s)
}

// Deliver hands an arriving segment to the owning connection or
// listener.
func (h *Host) Deliver(s *seg.Segment) {
	h.tap(Ingress, s)
	if c, ok := h.conns[connKey{s.Dst, s.Src}]; ok {
		c.Receive(s)
		return
	}
	if l, ok := h.listeners[s.Dst.Port]; ok {
		l.Incoming(s)
		return
	}
	h.Unmatched++
}

type routeKey struct {
	src, dst [4]byte
}

// Route is an installed route, as Host.Route resolves it.
type Route struct {
	// start is the precomputed delivery chain: hop 0's Send bound to
	// hop 1's, ending in Deliver-then-release. Built once in AddRoute
	// so routing a packet creates no closures.
	start func(*seg.Segment)
}

// Network connects hosts through routes made of shared links. Routing
// is by (source IP, destination IP): in the paper's testbed the path a
// packet takes is determined entirely by which client interface and
// which server interface it runs between.
type Network struct {
	sim    *sim.Simulator
	hosts  []*Host
	routes map[routeKey]*Route

	// pool recycles segments across the network's packet lifecycle:
	// endpoints Get one via Host.NewSegment, routes carry it hop to
	// hop, and the end of the chain — final delivery or any drop —
	// Puts it back. Taps and anything else that outlives that moment
	// works on clones.
	pool seg.Pool

	// NoRoute counts segments dropped for lack of a route: a config
	// error in tests, surfaced rather than panicking mid-simulation.
	NoRoute uint64
}

// NewNetwork returns an empty network on the simulator.
func NewNetwork(s *sim.Simulator) *Network {
	return &Network{sim: s, routes: make(map[routeKey]*Route)}
}

// Sim exposes the simulator driving this network.
func (n *Network) Sim() *sim.Simulator { return n.sim }

// Reset drops every host and route while keeping the segment pool's
// free list warm, so a reused network rebuilds its topology without
// reallocating per-packet state. Segments still in flight on the old
// topology are abandoned to the garbage collector (they were never
// released, so the pool's double-release guard is not at risk); the
// pool's Gets/News counters keep accumulating across runs like the
// simulator's pools do. Callers pair this with Simulator.Reset.
func (n *Network) Reset() {
	clear(n.hosts) // or the arena pins the last run's hosts and all they bind
	n.hosts = n.hosts[:0]
	clear(n.routes)
	n.NoRoute = 0
}

// NewSegment returns an empty segment from the network's pool. The
// segment is surrendered when sent (the route chain releases it after
// final delivery or at a drop); senders must not touch it afterwards.
func (n *Network) NewSegment() *seg.Segment { return n.pool.Get() }

// Pool exposes the network's segment pool (for stats and tests).
func (n *Network) Pool() *seg.Pool { return &n.pool }

// AddRoute installs a one-directional route: segments from srcIP to
// dstIP traverse hops in order and are then delivered to dst. Links
// may appear in multiple routes; they are shared bottlenecks.
func (n *Network) AddRoute(srcIP, dstIP [4]byte, dst *Host, hops ...*Link) {
	next := func(s *seg.Segment) {
		dst.Deliver(s)
		n.pool.Put(s)
	}
	for i := len(hops) - 1; i >= 0; i-- {
		hop, downstream := hops[i], next
		hop.pool = &n.pool
		next = func(s *seg.Segment) { hop.Send(s, downstream) }
	}
	if r := n.routes[routeKey{srcIP, dstIP}]; r != nil {
		r.start = next // in place: senders holding the route follow it
		return
	}
	n.routes[routeKey{srcIP, dstIP}] = &Route{start: next}
}

// AddDuplexRoute installs forward and reverse routes in one call:
// a->b over forward hops, b->a over reverse hops.
func (n *Network) AddDuplexRoute(aIP, bIP [4]byte, aHost, bHost *Host, forward, reverse []*Link) {
	n.AddRoute(aIP, bIP, bHost, forward...)
	n.AddRoute(bIP, aIP, aHost, reverse...)
}

// String summarizes the network.
func (n *Network) String() string {
	return fmt.Sprintf("network(%d hosts, %d routes)", len(n.hosts), len(n.routes))
}
