package netem

import (
	"fmt"
	"testing"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

func mkSeg(n int) *seg.Segment {
	return &seg.Segment{
		Src:        seg.MakeAddr("10.0.0.1", 1),
		Dst:        seg.MakeAddr("10.0.0.2", 2),
		Flags:      seg.ACK,
		PayloadLen: n,
	}
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	s := sim.New()
	rng := sim.NewRNG(1)
	l := NewLink(s, rng, "l")
	l.Rate = 12 * units.Mbps
	l.PropDelay = 10 * sim.Millisecond

	var arrived sim.Time
	pkt := mkSeg(1460) // 1500 wire bytes = 1 ms at 12 Mbps
	l.Send(pkt, func(*seg.Segment) { arrived = s.Now() })
	s.Run()

	want := sim.Millisecond + 10*sim.Millisecond
	if arrived != want {
		t.Errorf("arrival at %v, want %v", arrived, want)
	}
	if l.Stats.Sent != 1 {
		t.Errorf("Sent = %d", l.Stats.Sent)
	}
}

func TestLinkQueueingDelayAccumulates(t *testing.T) {
	s := sim.New()
	l := NewLink(s, sim.NewRNG(1), "l")
	l.Rate = 12 * units.Mbps
	l.PropDelay = 0

	var arrivals []sim.Time
	for i := 0; i < 5; i++ {
		l.Send(mkSeg(1460), func(*seg.Segment) { arrivals = append(arrivals, s.Now()) })
	}
	if qd := l.QueueDelay(); qd != 5*sim.Millisecond {
		t.Errorf("QueueDelay = %v, want 5ms", qd)
	}
	s.Run()
	for i, a := range arrivals {
		want := sim.Time(i+1) * sim.Millisecond
		if a != want {
			t.Errorf("packet %d arrived %v, want %v", i, a, want)
		}
	}
}

func TestLinkTailDrop(t *testing.T) {
	s := sim.New()
	l := NewLink(s, sim.NewRNG(1), "l")
	l.Rate = 1 * units.Mbps
	l.QueueLimit = 3000 // two 1500-byte frames

	delivered := 0
	for i := 0; i < 5; i++ {
		l.Send(mkSeg(1460), func(*seg.Segment) { delivered++ })
	}
	s.Run()
	if delivered != 2 {
		t.Errorf("delivered %d, want 2", delivered)
	}
	if l.Stats.QueueDrop != 3 {
		t.Errorf("QueueDrop = %d, want 3", l.Stats.QueueDrop)
	}
	// Queue fully drains.
	if l.QueuedBytes() != 0 {
		t.Errorf("QueuedBytes = %d after drain", l.QueuedBytes())
	}
}

func TestLinkFIFOUnderJitter(t *testing.T) {
	s := sim.New()
	l := NewLink(s, sim.NewRNG(7), "l")
	l.Rate = 100 * units.Mbps
	l.PropDelay = 5 * sim.Millisecond
	l.Jitter = UniformJitter{Lo: 0, Hi: 50 * sim.Millisecond}

	var order []uint64
	for i := 0; i < 200; i++ {
		l.Send(mkSeg(100), func(p *seg.Segment) { order = append(order, p.TxSeq) })
	}
	s.Run()
	if len(order) != 200 {
		t.Fatalf("delivered %d of 200", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("reordering within a link: %d before %d", order[i], order[i-1])
		}
	}
}

func TestBernoulliLossRate(t *testing.T) {
	s := sim.New()
	l := NewLink(s, sim.NewRNG(3), "l")
	l.Rate = 1 * units.Gbps
	l.Loss = BernoulliLoss{P: 0.1}

	delivered := 0
	const n = 5000
	for i := 0; i < n; i++ {
		l.Send(mkSeg(100), func(*seg.Segment) { delivered++ })
	}
	s.Run()
	rate := 1 - float64(delivered)/n
	if rate < 0.08 || rate > 0.12 {
		t.Errorf("observed loss %.3f, want ≈0.10", rate)
	}
}

func TestGilbertElliottStationaryLoss(t *testing.T) {
	p := GilbertElliottParams{PGood: 0.01, PBad: 0.3, PGB: 0.01, PBG: 0.2}
	g := p.New()
	rng := sim.NewRNG(11)
	losses := 0
	const n = 200000
	for i := 0; i < n; i++ {
		if g.Drop(rng) {
			losses++
		}
	}
	got := float64(losses) / n
	want := p.MeanLoss()
	if got < want*0.8 || got > want*1.2 {
		t.Errorf("GE loss %.4f, stationary prediction %.4f", got, want)
	}
}

func TestARQConvertsLossToDelay(t *testing.T) {
	s := sim.New()
	l := NewLink(s, sim.NewRNG(5), "l")
	l.Rate = 1 * units.Gbps
	l.ARQ = &ARQ{PLoss: 0.3, MaxRetries: 3, RetryDelay: 10 * sim.Millisecond}

	delivered, delayed := 0, 0
	const n = 3000
	send := func() {
		sentAt := s.Now()
		l.Send(mkSeg(100), func(*seg.Segment) {
			delivered++
			if s.Now()-sentAt > 9*sim.Millisecond {
				delayed++
			}
		})
	}
	for i := 0; i < n; i++ {
		send()
		s.Run()
	}
	// Residual loss ≈ 0.3^4 = 0.81%; ~30% of packets see ARQ delay.
	lossRate := 1 - float64(delivered)/n
	if lossRate > 0.03 {
		t.Errorf("residual loss %.3f too high; ARQ not recovering", lossRate)
	}
	frac := float64(delayed) / float64(delivered)
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("ARQ-delayed fraction %.3f, want ≈0.3", frac)
	}
}

func TestRadioPromotionAndDemotion(t *testing.T) {
	s := sim.New()
	r := NewRadio(s, 300*sim.Millisecond, 2*sim.Second)

	if r.State() != RadioIdle {
		t.Fatalf("initial state %v", r.State())
	}
	at := r.AvailableAt()
	if at != 300*sim.Millisecond {
		t.Errorf("promotion available at %v, want 300ms", at)
	}
	if r.State() != RadioPromoting {
		t.Errorf("state %v, want promoting", r.State())
	}
	s.RunUntil(400 * sim.Millisecond)
	if r.State() != RadioReady {
		t.Errorf("state %v after promotion, want ready", r.State())
	}
	if got := r.AvailableAt(); got != s.Now() {
		t.Errorf("ready radio available at %v, want now", got)
	}
	// Idle long enough to demote.
	s.RunUntil(5 * sim.Second)
	if r.State() != RadioIdle {
		t.Errorf("state %v after inactivity, want idle", r.State())
	}
	// Warm skips promotion (the paper's ping warm-up).
	r.Warm()
	if r.State() != RadioReady {
		t.Errorf("state %v after Warm", r.State())
	}
}

func TestRadioDelaysFirstPacket(t *testing.T) {
	s := sim.New()
	rng := sim.NewRNG(1)
	l := NewLink(s, rng, "cell")
	l.Rate = 1 * units.Gbps
	l.Radio = NewRadio(s, 250*sim.Millisecond, 10*sim.Second)

	var first, second sim.Time
	l.Send(mkSeg(100), func(*seg.Segment) { first = s.Now() })
	s.Run()
	l.Send(mkSeg(100), func(*seg.Segment) { second = s.Now() })
	s.Run()
	if first < 250*sim.Millisecond {
		t.Errorf("first packet at %v, want ≥ promotion 250ms", first)
	}
	if second-first > 10*sim.Millisecond {
		t.Errorf("second packet took %v after first; radio should be warm", second-first)
	}
}

func TestHostDemux(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	a := n.NewHost("a")
	b := n.NewHost("b")
	l1 := NewLink(s, sim.NewRNG(1), "ab")
	l1.Rate = 1 * units.Gbps
	l2 := NewLink(s, sim.NewRNG(1), "ba")
	l2.Rate = 1 * units.Gbps
	aAddr := seg.MakeAddr("10.0.0.1", 100)
	bAddr := seg.MakeAddr("10.0.0.2", 200)
	n.AddDuplexRoute(aAddr.IP, bAddr.IP, a, b, []*Link{l1}, []*Link{l2})

	got := 0
	b.Bind(bAddr, aAddr, handlerFunc(func(sg *seg.Segment) { got++ }))
	a.Send(&seg.Segment{Src: aAddr, Dst: bAddr, Flags: seg.ACK})
	s.Run()
	if got != 1 {
		t.Errorf("handler received %d segments", got)
	}

	// Listener catches unbound ports; unmatched counts otherwise.
	lis := &recordingListener{}
	b.Listen(999, lis)
	a.Send(&seg.Segment{Src: aAddr, Dst: seg.MakeAddr("10.0.0.2", 999), Flags: seg.SYN})
	a.Send(&seg.Segment{Src: aAddr, Dst: seg.MakeAddr("10.0.0.2", 777), Flags: seg.SYN})
	s.Run()
	if lis.got != 1 {
		t.Errorf("listener received %d", lis.got)
	}
	if b.Unmatched != 1 {
		t.Errorf("Unmatched = %d, want 1", b.Unmatched)
	}

	// Missing route is counted, not fatal.
	a.Send(&seg.Segment{Src: seg.MakeAddr("9.9.9.9", 1), Dst: bAddr})
	s.Run()
	if n.NoRoute != 1 {
		t.Errorf("NoRoute = %d, want 1", n.NoRoute)
	}
}

type handlerFunc func(*seg.Segment)

func (f handlerFunc) Receive(s *seg.Segment) { f(s) }

type recordingListener struct{ got int }

func (l *recordingListener) Incoming(*seg.Segment) { l.got++ }

func TestTapsSeeClones(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	a := n.NewHost("a")
	b := n.NewHost("b")
	l := NewLink(s, sim.NewRNG(1), "ab")
	l.Rate = 1 * units.Gbps
	aAddr := seg.MakeAddr("10.0.0.1", 1)
	bAddr := seg.MakeAddr("10.0.0.2", 2)
	n.AddRoute(aAddr.IP, bAddr.IP, b, l)

	var captured *seg.Segment
	a.AddTap(func(dir Direction, at sim.Time, sg *seg.Segment) {
		if dir == Egress {
			captured = sg
		}
	})
	orig := &seg.Segment{Src: aAddr, Dst: bAddr, Seq: 42}
	a.Send(orig)
	orig.Seq = 99 // mutate after send
	s.Run()
	if captured == nil {
		t.Fatal("tap saw nothing")
	}
	if captured.Seq != 42 {
		t.Errorf("tap saw mutated segment (seq=%d)", captured.Seq)
	}
}

func TestSharedLinkIsSharedBottleneck(t *testing.T) {
	// Two routes over one 1 Mbps link: total goodput is bounded by the
	// shared link, which is what makes the paper's 4-path experiments
	// access-limited.
	s := sim.New()
	n := NewNetwork(s)
	a := n.NewHost("a")
	b := n.NewHost("b")
	shared := NewLink(s, sim.NewRNG(1), "shared")
	shared.Rate = 1 * units.Mbps
	a1 := seg.MakeAddr("10.0.0.1", 1)
	a2 := seg.MakeAddr("10.0.1.1", 1)
	bAddr := seg.MakeAddr("10.0.9.9", 2)
	n.AddRoute(a1.IP, bAddr.IP, b, shared)
	n.AddRoute(a2.IP, bAddr.IP, b, shared)

	got := 0
	var last sim.Time
	b.Bind(bAddr, a1, handlerFunc(func(*seg.Segment) { got++; last = s.Now() }))
	b.Bind(bAddr, a2, handlerFunc(func(*seg.Segment) { got++; last = s.Now() }))

	// 20 full-size packets, alternating "paths", injected at t=0.
	for i := 0; i < 10; i++ {
		a.Send(&seg.Segment{Src: a1, Dst: bAddr, PayloadLen: 1460, Flags: seg.ACK})
		a.Send(&seg.Segment{Src: a2, Dst: bAddr, PayloadLen: 1460, Flags: seg.ACK})
	}
	s.Run()
	if got != 20 {
		t.Fatalf("delivered %d of 20", got)
	}
	// 20 * 1500B at 1 Mbps = 240 ms: both routes serialized through
	// the one link, not 120 ms each in parallel.
	want := sim.Time(240) * sim.Millisecond
	if last < want-sim.Millisecond || last > want+sim.Millisecond {
		t.Errorf("last delivery at %v, want ≈%v (shared bottleneck)", last, want)
	}
}

// TestEventsPerPacketHop is the event budget of the packet path, as an
// exact gate: a packet costs one simulator event per hop — its arrival.
// Departures are accounted lazily (Link.retire) and a hop's delivery
// calls the next hop's Send inline, so anything that makes
// sim.Processed() grow faster than packets×hops is per-packet
// bookkeeping that became an event again, and fails here rather than in
// a timing job.
func TestEventsPerPacketHop(t *testing.T) {
	const n, slack = 1000, 8
	for hops := 1; hops <= 2; hops++ {
		s := sim.New()
		nw := NewNetwork(s)
		a, b := nw.NewHost("a"), nw.NewHost("b")
		aAddr, bAddr := seg.MakeAddr("10.0.0.1", 1), seg.MakeAddr("10.0.0.2", 2)
		var route []*Link
		for i := 0; i < hops; i++ {
			l := NewLink(s, sim.NewRNG(1), fmt.Sprintf("hop%d", i))
			l.Rate = 12 * units.Mbps
			l.PropDelay = 5 * sim.Millisecond
			route = append(route, l)
		}
		nw.AddRoute(aAddr.IP, bAddr.IP, b, route...)
		got := 0
		b.Bind(bAddr, aAddr, handlerFunc(func(*seg.Segment) { got++ }))

		// Two bursts with an idle gap between, so the count covers a
		// queue that builds, drains, and restarts from empty.
		for burst := 0; burst < 2; burst++ {
			for i := 0; i < n/2; i++ {
				p := nw.NewSegment()
				p.Src, p.Dst, p.Flags, p.PayloadLen = aAddr, bAddr, seg.ACK, 1460
				a.Send(p)
			}
			s.RunFor(10 * sim.Second)
		}
		if got != n {
			t.Fatalf("%d hops: delivered %d of %d", hops, got, n)
		}
		if max := uint64(n*hops + slack); s.Processed() > max {
			t.Errorf("%d hops: %d events for %d packets, ceiling %d (one per packet-hop)", hops, s.Processed(), n, max)
		}
		for _, l := range route {
			if l.QueuedBytes() != 0 {
				t.Errorf("%d hops: %s holds %d bytes after draining", hops, l.Name, l.QueuedBytes())
			}
		}
	}
}

// A resolved route is a handle, not a snapshot: AddRoute over the same
// pair redirects a sender already holding it. A sender holding none is
// counted and its segment released, every time.
func TestResolvedRoute(t *testing.T) {
	s := sim.New()
	n := NewNetwork(s)
	a, b, c := n.NewHost("a"), n.NewHost("b"), n.NewHost("c")
	link := func(name string) *Link {
		l := NewLink(s, sim.NewRNG(1), name)
		l.Rate = 1 * units.Gbps
		return l
	}
	aAddr := seg.MakeAddr("10.0.0.1", 100)
	bAddr := seg.MakeAddr("10.0.0.2", 200)
	send := func(r *Route) {
		sg := n.NewSegment()
		sg.Src, sg.Dst, sg.Flags = aAddr, bAddr, seg.ACK
		a.SendVia(r, sg)
		s.Run()
	}

	for i := uint64(1); i <= 3; i++ {
		send(a.Route(aAddr.IP, bAddr.IP))
		if n.NoRoute != i {
			t.Fatalf("NoRoute = %d after %d unrouted sends", n.NoRoute, i)
		}
	}
	if p := n.Pool(); p.Gets != 3 || p.News != 1 {
		t.Errorf("unrouted sends leaked segments: %d gets, %d of them fresh", p.Gets, p.News)
	}

	var gotB, gotC int
	b.Bind(bAddr, aAddr, handlerFunc(func(*seg.Segment) { gotB++ }))
	c.Bind(bAddr, aAddr, handlerFunc(func(*seg.Segment) { gotC++ }))
	n.AddRoute(aAddr.IP, bAddr.IP, b, link("ab"))
	r := a.Route(aAddr.IP, bAddr.IP)
	send(r)
	if r == nil || gotB != 1 {
		t.Fatalf("route %v delivered %d segments to b", r, gotB)
	}

	ac := link("ac")
	n.AddRoute(aAddr.IP, bAddr.IP, c, ac)
	if a.Route(aAddr.IP, bAddr.IP) != r {
		t.Error("AddRoute over an installed pair replaced the route instead of updating it")
	}
	send(r)
	if gotB != 1 || gotC != 1 || ac.Stats.Sent != 1 {
		t.Errorf("held route after re-AddRoute: b got %d, c got %d, new link carried %d", gotB, gotC, ac.Stats.Sent)
	}
	if p := n.Pool(); n.NoRoute != 3 || p.News != 1 {
		t.Errorf("NoRoute = %d, %d fresh segments; want 3 and 1", n.NoRoute, p.News)
	}
}
