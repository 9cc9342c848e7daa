package check

import (
	"strings"
	"testing"

	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

var (
	addrA = seg.MakeAddr("10.9.9.1", 1111)
	addrB = seg.MakeAddr("10.9.9.2", 2222)
)

func newChecker() *Checker { return New(sim.New()) }

func egress(c *Checker, s *seg.Segment)  { c.OnSegment("a", netem.Egress, 0, s) }
func ingress(c *Checker, s *seg.Segment) { c.OnSegment("a", netem.Ingress, 0, s) }

// expectRule asserts the checker recorded at least one violation of
// rule and no violations of any other rule.
func expectRule(t *testing.T, c *Checker, rule string) {
	t.Helper()
	if c.Ok() {
		t.Fatalf("expected a %q violation, checker is clean", rule)
	}
	for _, v := range c.Violations() {
		if v.Rule != rule {
			t.Fatalf("unexpected violation %v (want only %q)", v, rule)
		}
	}
}

func dataSeg(src, dst seg.Addr, sn uint32, n int) *seg.Segment {
	return &seg.Segment{Src: src, Dst: dst, Seq: sn, PayloadLen: n}
}

func TestCheckerCleanSequence(t *testing.T) {
	c := newChecker()
	syn := &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN}
	egress(c, syn)
	egress(c, dataSeg(addrA, addrB, 101, 500))
	egress(c, dataSeg(addrA, addrB, 601, 500))
	rtx := dataSeg(addrA, addrB, 101, 500)
	rtx.Retransmit = true
	egress(c, rtx)
	if !c.Ok() {
		t.Fatalf("clean sequence flagged: %v", c.Violations())
	}
}

func TestCheckerSeqGap(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN})
	egress(c, dataSeg(addrA, addrB, 301, 500)) // expected 101
	expectRule(t, c, "seq-gap")
}

func TestCheckerSYNISSChanged(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN})
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 200, Flags: seg.SYN, Retransmit: true})
	expectRule(t, c, "syn-iss-changed")
}

func TestCheckerRtxBeyondSent(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN})
	egress(c, dataSeg(addrA, addrB, 101, 100))
	rtx := dataSeg(addrA, addrB, 201, 100) // nothing at 201 was ever sent
	rtx.Retransmit = true
	egress(c, rtx)
	expectRule(t, c, "rtx-beyond-sent")
}

func TestCheckerRtxExtends(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN})
	egress(c, dataSeg(addrA, addrB, 101, 100))
	rtx := dataSeg(addrA, addrB, 151, 100) // [151,251) extends past 201
	rtx.Retransmit = true
	egress(c, rtx)
	expectRule(t, c, "rtx-extends")
}

func TestCheckerAckRegress(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrB, Dst: addrA, Seq: 0, PayloadLen: 200})
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK, Ack: 100})
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK, Ack: 50})
	expectRule(t, c, "ack-regress")
}

func TestCheckerAckUnsent(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrB, Dst: addrA, Seq: 0, Flags: seg.SYN}) // peer sent [0,1)
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK, Ack: 500})
	expectRule(t, c, "ack-unsent")
}

func TestCheckerSACK(t *testing.T) {
	cases := []struct {
		rule   string
		ack    uint32
		blocks []seg.SACKBlock
	}{
		{"sack-empty", 10, []seg.SACKBlock{{Start: 50, End: 50}}},
		{"sack-below-ack", 100, []seg.SACKBlock{{Start: 50, End: 80}}},
		{"sack-overlap", 10, []seg.SACKBlock{{Start: 20, End: 40}, {Start: 30, End: 50}}},
	}
	for _, tc := range cases {
		t.Run(tc.rule, func(t *testing.T) {
			c := newChecker()
			s := &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK, Ack: tc.ack}
			s.AddSACK(tc.blocks)
			egress(c, s)
			expectRule(t, c, tc.rule)
		})
	}
}

func TestCheckerSACKUnsent(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrB, Dst: addrA, Seq: 0, Flags: seg.SYN}) // peer sent [0,1)
	s := &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK, Ack: 1}
	s.AddSACK([]seg.SACKBlock{{Start: 100, End: 200}})
	egress(c, s)
	expectRule(t, c, "sack-unsent")
}

func TestCheckerWindowOverrun(t *testing.T) {
	c := newChecker()
	// B announces window scale 2 on its SYN.
	syn := &seg.Segment{Src: addrB, Dst: addrA, Seq: 0, Flags: seg.SYN}
	syn.AddWindowScale(seg.WindowScaleOption{Shift: 2})
	c.OnSegment("b", netem.Egress, 0, syn)
	// A receives B's ACK: right edge = 500 + 100<<2 = 900.
	ingress(c, &seg.Segment{Src: addrB, Dst: addrA, Flags: seg.ACK, Ack: 500, Window: 100})

	inside := dataSeg(addrA, addrB, 500, 400) // ends exactly at 900
	egress(c, inside)
	if !c.Ok() {
		t.Fatalf("payload inside advertised window flagged: %v", c.Violations())
	}
	over := dataSeg(addrA, addrB, 900, 1) // contiguous, one byte past the edge
	egress(c, over)
	expectRule(t, c, "window-overrun")
}

func TestCheckerDSSLength(t *testing.T) {
	c := newChecker()
	s := dataSeg(addrA, addrB, 1, 100)
	s.AddDSS(seg.DSSOption{HasMap: true, DataSeq: 1, SubflowSeq: 1, Length: 50})
	ingress(c, s)
	expectRule(t, c, "dss-length")
}

func TestCheckerDSSSubflowSeq(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN})
	s := dataSeg(addrA, addrB, 101, 100)
	s.AddDSS(seg.DSSOption{HasMap: true, DataSeq: 1, SubflowSeq: 999, Length: 100})
	egress(c, s)
	expectRule(t, c, "dss-subflow-seq")
}

func TestCheckerDSSRemap(t *testing.T) {
	c := newChecker()
	s1 := dataSeg(addrA, addrB, 1, 100)
	s1.AddDSS(seg.DSSOption{HasMap: true, DataSeq: 1000, SubflowSeq: 1, Length: 100})
	ingress(c, s1)
	// Same subflow bytes re-presented with a different data sequence.
	s2 := dataSeg(addrA, addrB, 1, 100)
	s2.AddDSS(seg.DSSOption{HasMap: true, DataSeq: 2000, SubflowSeq: 1, Length: 100})
	ingress(c, s2)
	expectRule(t, c, "dss-remap")
}

func TestCheckerDSSRemapConsistentDuplicate(t *testing.T) {
	c := newChecker()
	for i := 0; i < 2; i++ { // exact duplicate delivery is legal
		s := dataSeg(addrA, addrB, 1, 100)
		s.AddDSS(seg.DSSOption{HasMap: true, DataSeq: 1000, SubflowSeq: 1, Length: 100})
		ingress(c, s)
	}
	if !c.Ok() {
		t.Fatalf("consistent duplicate mapping flagged: %v", c.Violations())
	}
}

func TestCheckerDataAckRegress(t *testing.T) {
	c := newChecker()
	s1 := &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK}
	s1.AddDSS(seg.DSSOption{HasAck: true, DataAck: 1000})
	egress(c, s1)
	s2 := &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK}
	s2.AddDSS(seg.DSSOption{HasAck: true, DataAck: 500})
	egress(c, s2)
	expectRule(t, c, "dack-regress")
}

func TestCheckerDataFinMoved(t *testing.T) {
	c := newChecker()
	s1 := &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK}
	s1.AddDSS(seg.DSSOption{HasMap: true, DataFin: true, DataSeq: 500})
	ingress(c, s1)
	s2 := &seg.Segment{Src: addrA, Dst: addrB, Flags: seg.ACK}
	s2.AddDSS(seg.DSSOption{HasMap: true, DataFin: true, DataSeq: 600})
	ingress(c, s2)
	expectRule(t, c, "datafin-moved")
}

func TestCheckerIgnoresRST(t *testing.T) {
	c := newChecker()
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 100, Flags: seg.SYN})
	egress(c, &seg.Segment{Src: addrA, Dst: addrB, Seq: 9999, Flags: seg.RST})
	if !c.Ok() {
		t.Fatalf("RST flagged: %v", c.Violations())
	}
}

func TestCheckerMaxViolations(t *testing.T) {
	c := newChecker()
	c.MaxViolations = 3
	for i := 0; i < 10; i++ {
		c.Report("synthetic", "overflow test")
	}
	if got := len(c.Violations()); got != 3 {
		t.Fatalf("retained %d violations, want cap 3", got)
	}
	if c.Count() != 10 {
		t.Fatalf("Count() = %d, want 10", c.Count())
	}
}

func TestCheckerArmLink(t *testing.T) {
	s := sim.New()
	c := New(s)
	l := netem.NewLink(s, sim.NewRNG(1), "lnk")
	c.ArmLink(l)
	if l.OnBadOwnership == nil {
		t.Fatal("ArmLink did not install the ownership hook")
	}
	l.OnBadOwnership("lnk", &seg.Segment{})
	if c.Ok() {
		t.Fatal("ownership hook did not record a violation")
	}
	if v := c.Violations()[0]; v.Rule != "pool-ownership" || !strings.Contains(v.Detail, "lnk") {
		t.Fatalf("unexpected violation %v", v)
	}
}

// TestArmReachesLaterClients: a world builds a client at its first
// use, so a checker armed before then must still tap it. Only the
// client's own egress tap sees its SYN leave — the server's taps learn
// the flow from its ingress, without the SYN's sequence state — so a
// flow that saw its SYN proves the late client is observed.
func TestArmReachesLaterClients(t *testing.T) {
	w := world.New()
	rng := sim.NewRNG(1)
	link := func(name string) *netem.Link {
		l := netem.NewLink(w.Sim, rng, name)
		l.Rate, l.PropDelay, l.QueueLimit = 20*units.Mbps, 10*sim.Millisecond, 256*units.KB
		return l
	}
	a := world.Access{WiFiUp: link("wifi-up"), WiFiDown: link("wifi-down"), CellUp: link("cell-up"), CellDown: link("cell-down")}
	w.Build(rng, a, 8, world.Plan{
		ClientIPs: func(i int) (wifi, cell [4]byte) { return [4]byte{10, 0, byte(i), 2}, [4]byte{100, 64, byte(i), 2} },
		Ports:     func(k int) (wifi, cell uint16) { return uint16(40000 + 2*k), uint16(40001 + 2*k) },
		LANQueue:  16 * units.MB,
	})
	ck := Arm(w, 25*sim.Millisecond)

	cfg := mptcp.DefaultConfig()
	fs := &web.FileServer{SizeFor: func(int) int { return 64 << 10 }}
	w.Serve(cfg, rng.Child("srv"), func(p world.Peer) *web.FileServer { ck.Watch("server", p); return fs })
	cl := w.Client(5)
	wifi, cell := cl.Addrs()
	p := w.Dial(cl, world.MPTCP, mptcp.DialOpts{LocalAddrs: []seg.Addr{wifi, cell}, Config: cfg}, rng.Child("cli"))
	ck.Watch("client", p)
	if f := ck.peekFlow(wifi, world.ServerAddr); f == nil || !f.sawSYN {
		t.Fatalf("the checker did not see client 5's SYN leave: %+v", f)
	}
	g := web.NewGetter(p.Stream())
	done := false
	g.Get(64<<10, func() { done = true; g.Close() })
	w.Sim.RunUntil(10 * sim.Second)
	if !done || !ck.Ok() {
		t.Fatalf("done=%v, violations %v", done, ck.Violations())
	}
}
