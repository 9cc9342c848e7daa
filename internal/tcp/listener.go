package tcp

import (
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

// Listener accepts passive opens on a port, across all of a host's
// addresses — the paper's server listens on one Apache port reachable
// via both of its interfaces.
type Listener struct {
	host *netem.Host
	net  *netem.Network
	cfg  Config
	rng  *sim.RNG

	// OnAccept is invoked with the newly created endpoint and the SYN
	// that produced it, before the SYN-ACK is sent, so the application
	// (or the MPTCP layer) can install callbacks and option hooks.
	// Returning false refuses the connection.
	OnAccept func(ep *Endpoint, syn *seg.Segment) bool

	// Accepted counts passive opens; Refused counts OnAccept vetoes.
	Accepted, Refused uint64
}

// Listen registers a listener for port on host.
func Listen(host *netem.Host, network *netem.Network, port uint16, cfg Config, rng *sim.RNG) *Listener {
	l := &Listener{host: host, net: network, cfg: cfg, rng: rng}
	host.Listen(port, l)
	return l
}

// Incoming implements netem.Listener.
func (l *Listener) Incoming(s *seg.Segment) {
	if !s.Flags.Has(seg.SYN) || s.Flags.Has(seg.ACK) {
		// Stray non-SYN segment for a connection we no longer have
		// (e.g. retransmission after teardown); ignore it.
		return
	}
	ep := newEndpoint(accepted, l.host, l.net, s.Dst, s.Src, l.cfg, l.rng.Child("accept"))
	if l.OnAccept != nil && !l.OnAccept(ep, s) {
		l.Refused++
		ep.teardown()
		return
	}
	l.Accepted++
	ep.accept(s)
}
