package tcp

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// An endpoint resolves its route once and sends on it from then on
// (Endpoint.transmit). These tests hold that to what a per-packet
// lookup did: routes installed late are found, missing ones are counted
// and leak nothing, a re-added route redirects, taps see every segment.

// lateAddr is a client address newTestNet installs no route for.
var lateAddr = seg.MakeAddr("10.0.0.3", 40000)

func (tn *testNet) addLateRoute() {
	tn.net.AddDuplexRoute(lateAddr.IP, tn.sAddr.IP, tn.client, tn.server,
		[]*netem.Link{tn.up}, []*netem.Link{tn.down})
}

func TestRouteAddedAfterNewEndpoint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		routeAt sim.Time // when the route appears; the SYN leaves at 0
		noRoute uint64
	}{
		{"before the first SYN", 0, 0},
		{"between SYN and its retransmission", 500 * sim.Millisecond, 1},
	} {
		tn := newTestNet(t, 100*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
		Listen(tn.server, tn.net, tn.sAddr.Port, DefaultConfig(), tn.rng.Child("server"))
		client := NewEndpoint(tn.client, tn.net, lateAddr, tn.sAddr, DefaultConfig(), tn.rng.Child("client"))
		if tc.routeAt == 0 {
			tn.addLateRoute()
		} else {
			tn.sim.At(tc.routeAt, "test.route", tn.addLateRoute)
		}
		client.Connect()
		tn.sim.RunUntil(5 * sim.Second)
		if client.State() != StateEstablished || tn.net.NoRoute != tc.noRoute {
			t.Errorf("route installed %s: client %v, NoRoute %d (want %d)",
				tc.name, client.State(), tn.net.NoRoute, tc.noRoute)
		}
	}
}

func TestNoRouteCountedPerSendAndReleased(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
	client := NewEndpoint(tn.client, tn.net, lateAddr, tn.sAddr, DefaultConfig(), tn.rng.Child("client"))
	var syns []seg.Segment
	tn.client.AddTap(func(_ netem.Direction, _ sim.Time, s *seg.Segment) { syns = append(syns, *s) })
	client.Connect()
	tn.sim.RunUntil(10 * sim.Second) // the SYN and its 1 s, 3 s, 7 s retransmissions
	egress := len(syns)
	pool := tn.net.Pool()
	if egress < 4 || tn.net.NoRoute != uint64(egress) || pool.Gets != uint64(egress) {
		t.Errorf("%d segments left the endpoint, %d counted NoRoute, %d taken from the pool", egress, tn.net.NoRoute, pool.Gets)
	}
	if pool.News != 1 {
		t.Errorf("unrouted segments not released: %d of %d were fresh allocations", pool.News, pool.Gets)
	}
	checkHandshakeRetransmits(t, seg.SYN, syns)
}

// TestSYNACKRetransmitted: a SYN-ACK lost on the way to the client is
// sent again, with the first one's options, and the handshake
// completes.
func TestSYNACKRetransmitted(t *testing.T) {
	tn := newTestNet(t, 100*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
	tn.down.Loss = &dropFirst{n: 1}
	var synacks []seg.Segment
	tn.server.AddTap(func(dir netem.Direction, _ sim.Time, s *seg.Segment) {
		if dir == netem.Egress && s.Flags.Has(seg.SYN) {
			synacks = append(synacks, *s)
		}
	})
	client, _, _ := tn.runDownload(t, 8*units.KB, DefaultConfig())
	if client.Stats.Timeouts == 0 {
		t.Fatal("the client never timed out: the first SYN-ACK was not lost")
	}
	checkHandshakeRetransmits(t, seg.SYN|seg.ACK, synacks)
}

// checkHandshakeRetransmits holds a handshake segment and its
// retransmissions to the same flags, sequence number and options, with
// Retransmit set on the retransmissions alone.
func checkHandshakeRetransmits(t *testing.T, flags seg.Flags, sent []seg.Segment) {
	t.Helper()
	if len(sent) < 2 {
		t.Fatalf("%d handshake segments sent, want the first and a retransmission", len(sent))
	}
	first := sent[0]
	for i, s := range sent {
		if !s.Has(seg.OptMSS) || !s.Has(seg.OptWindowScale) || !s.Has(seg.OptSACKPermitted) {
			t.Errorf("segment %d lacks a handshake option: MSS %v, window scale %v, SACK-permitted %v",
				i, s.Has(seg.OptMSS), s.Has(seg.OptWindowScale), s.Has(seg.OptSACKPermitted))
		}
		if s.Flags != flags || s.Seq != first.Seq || s.MSS != first.MSS || s.WScale != first.WScale {
			t.Errorf("segment %d: flags %v seq %d %+v %+v; the first: flags %v seq %d %+v %+v",
				i, s.Flags, s.Seq, s.MSS, s.WScale, first.Flags, first.Seq, first.MSS, first.WScale)
		}
		if s.Retransmit != (i > 0) {
			t.Errorf("segment %d: Retransmit = %v", i, s.Retransmit)
		}
	}
}

// dropFirst loses the first n packets of a link.
type dropFirst struct{ n int }

func (d *dropFirst) Drop(*sim.RNG) bool {
	d.n--
	return d.n >= 0
}

func TestAddRouteRedirectsResolvedEndpoint(t *testing.T) {
	tn := newTestNet(t, 10*units.Mbps, 10*sim.Millisecond, 0, 1*units.MB)
	up2 := netem.NewLink(tn.sim, tn.rng, "up2")
	up2.Rate, up2.PropDelay, up2.QueueLimit = tn.up.Rate, tn.up.PropDelay, tn.up.QueueLimit
	var settled uint64
	tn.sim.At(200*sim.Millisecond, "test.reroute", func() {
		if tn.up.Stats.Sent == 0 {
			t.Error("client sent nothing before the reroute")
		}
		tn.net.AddRoute(tn.cAddr.IP, tn.sAddr.IP, tn.server, up2)
	})
	tn.sim.At(300*sim.Millisecond, "test.settled", func() { settled = tn.up.Stats.Sent })
	tn.runDownload(t, 2*units.MB, DefaultConfig())
	if up2.Stats.Sent == 0 || tn.up.Stats.Sent != settled {
		t.Errorf("after AddRoute over the pair: new link carried %d, old link %d → %d",
			up2.Stats.Sent, settled, tn.up.Stats.Sent)
	}
}

func TestEgressTapsSeeEachSegmentOnce(t *testing.T) {
	tn := newTestNet(t, 20*units.Mbps, 15*sim.Millisecond, 0.02, 1*units.MB)
	var egress int
	for _, h := range []*netem.Host{tn.client, tn.server} {
		h.AddTap(func(dir netem.Direction, at sim.Time, s *seg.Segment) {
			if dir != netem.Egress {
				return
			}
			egress++
			if at != s.SentAt {
				t.Errorf("segment %d tapped at %v, stamped %v", egress, at, s.SentAt)
			}
		})
	}
	tn.runDownload(t, 512*units.KB, DefaultConfig())

	// Every segment an endpoint takes from the pool is sent exactly once.
	if gets := tn.net.Pool().Gets; uint64(egress) != gets {
		t.Fatalf("%d segments built, taps saw %d", gets, egress)
	}
}
