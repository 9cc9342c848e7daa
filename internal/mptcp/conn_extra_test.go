package mptcp

import (
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
)

// A connection closed without ever writing data must still deliver its
// DATA_FIN (on a bare ACK) and tear down cleanly on both sides.
func TestBareDataFinClose(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	cfg := DefaultConfig()

	srvClosed := false
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	srv.OnConn = func(c *Conn) {
		c.OnRemoteClose = func() {
			srvClosed = true
			c.Close()
		}
	}
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs: []seg.Addr{tn.wifiAddr, tn.cellAddr},
		ServerAddr: tn.srvAddr,
		Config:     cfg,
	}, tn.rng.Child("cli"))
	cliClosed := false
	conn.OnRemoteClose = func() { cliClosed = true }
	conn.OnEstablished = func() { conn.Close() }

	tn.sim.RunUntil(10 * sim.Second)
	if !srvClosed {
		t.Error("server never saw the client's DATA_FIN")
	}
	if !cliClosed {
		t.Error("client never saw the server's DATA_FIN")
	}
	for _, sf := range conn.Subflows() {
		if st := sf.EP.State(); st != tcp.StateClosed && st != tcp.StateTimeWait {
			t.Errorf("subflow %d state %v after close", sf.ID, st)
		}
	}
}

// A legacy (non-MPTCP) SYN reaches the plain-TCP fallback, as the
// paper's Apache serves non-MPTCP clients.
func TestServerPlainTCPFallback(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	cfg := DefaultConfig()

	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	plainAccepted := false
	srv.OnPlainConn = func(ep *tcp.Endpoint) bool {
		plainAccepted = true
		ep.OnEstablished = func() {
			ep.Write(1000)
			ep.Close()
		}
		return true
	}
	var rcvd int
	ep := tcp.NewEndpoint(tn.client, tn.net, tn.wifiAddr, tn.srvAddr, cfg.TCP, tn.rng.Child("cli"))
	ep.OnDeliver = func(n int) { rcvd += n }
	ep.Connect()
	tn.sim.RunUntil(5 * sim.Second)

	if !plainAccepted {
		t.Fatal("plain TCP SYN not routed to fallback")
	}
	if rcvd != 1000 {
		t.Errorf("plain client received %d of 1000", rcvd)
	}
}

// Without a fallback handler, legacy SYNs are refused and the server
// counts them.
func TestServerRefusesPlainWithoutFallback(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	cfg := DefaultConfig()
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	ep := tcp.NewEndpoint(tn.client, tn.net, tn.wifiAddr, tn.srvAddr, cfg.TCP, tn.rng.Child("cli"))
	ep.Connect()
	tn.sim.RunUntil(2 * sim.Second)
	if srv.Listener().Refused == 0 {
		t.Error("plain SYN not counted as refused")
	}
	if ep.State() == tcp.StateEstablished {
		t.Error("plain client established against an MPTCP-only server")
	}
}

// Round-robin splits load roughly evenly across symmetric paths and
// still delivers exactly once.
func TestRoundRobinSchedulerFairOnSymmetricPaths(t *testing.T) {
	p := pathParams{rate: 10 * units.Mbps, prop: 20 * sim.Millisecond, queue: 512 * units.KB}
	tn := buildTwoPath(t, p, p, false)
	cfg := DefaultConfig()
	cfg.Scheduler = "round-robin"
	cli, srv, _ := tn.download(t, 8*units.MB, cfg, false)
	var a, b int64
	for i, sf := range srv.Subflows() {
		if i == 0 {
			a = sf.EP.Stats.BytesSent
		} else {
			b += sf.EP.Stats.BytesSent
		}
	}
	frac := float64(a) / float64(a+b)
	if frac < 0.30 || frac > 0.70 {
		t.Errorf("round-robin split %.2f/%.2f on symmetric paths; want near-even", frac, 1-frac)
	}
	if cli.Reorder().BufferedBytes() != 0 {
		t.Errorf("reorder residue after completion")
	}
}

// The redundant scheduler sends every byte on both paths: the
// transfer still delivers exactly once, the sender accounts the extra
// copies as DupTxBytes (not retransmissions), and the receiver
// discards and counts them as DupBytes.
func TestRedundantSchedulerDuplicatesAndDedups(t *testing.T) {
	p := pathParams{rate: 10 * units.Mbps, prop: 20 * sim.Millisecond, queue: 512 * units.KB}
	tn := buildTwoPath(t, p, p, false)
	cfg := DefaultConfig()
	cfg.Scheduler = "redundant"
	size := 2 * units.MB
	cli, srv, _ := tn.download(t, int(size), cfg, false)
	if srv.DupTxBytes == 0 {
		t.Error("server scheduled no duplicate bytes under redundant")
	}
	// Nearly every byte should ride both paths once the second subflow
	// joins; allow slack for the pre-join prefix.
	if srv.DupTxBytes < int64(size)/2 {
		t.Errorf("DupTxBytes = %d, want most of the %d-byte transfer duplicated", srv.DupTxBytes, size)
	}
	rb := cli.Reorder()
	if rb.DupBytes == 0 {
		t.Error("client reorder buffer recorded no duplicate bytes")
	}
	if rb.Delivered != int64(size) {
		t.Errorf("delivered %d, want exactly %d (duplicates must not inflate delivery)", rb.Delivered, size)
	}
	if err := rb.CheckInvariants(); err != nil {
		t.Errorf("reorder invariants after redundant transfer: %v", err)
	}
	// Duplicate copies are fresh subflow sends, not TCP retransmissions:
	// per-path sent bytes exceed the file, yet retransmissions stay
	// bounded by actual loss (none on these clean paths).
	var sent, retrans int64
	for _, sf := range srv.Subflows() {
		sent += sf.EP.Stats.BytesSent
		retrans += sf.EP.Stats.BytesRetrans
	}
	if sent < int64(size)+srv.DupTxBytes {
		t.Errorf("per-path sent bytes %d below delivered+duplicated %d", sent, int64(size)+srv.DupTxBytes)
	}
	if retrans > int64(size)/10 {
		t.Errorf("redundant copies misaccounted as retransmissions: %d", retrans)
	}
}

// Duplicate ADD_ADDR advertisements must not create duplicate subflows.
func TestDuplicateAddAddrIgnored(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), true)
	cfg := DefaultConfig()
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	srv.AdvertiseAddrs = []seg.Addr{tn.srvAddr2, tn.srvAddr2} // duplicated
	srv.OnConn = func(c *Conn) { c.OnData = func(int64) {} }
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs:     []seg.Addr{tn.wifiAddr, tn.cellAddr},
		ServerAddr:     tn.srvAddr,
		JoinAdvertised: true,
		Config:         cfg,
	}, tn.rng.Child("cli"))
	tn.sim.RunUntil(5 * sim.Second)
	if got := len(conn.Subflows()); got != 4 {
		t.Errorf("client has %d subflows, want exactly 4 despite duplicate ADD_ADDR", got)
	}
}

// Every queued ADD_ADDR reaches the peer: a server advertising two
// distinct secondary addresses ends with the client holding a subflow
// from each interface to each of them, and each advertisement crosses
// the wire in exactly one encoded frame (a header carries one ADD_ADDR;
// the second rides the next segment).
func TestEveryAdvertisedAddrJoined(t *testing.T) {
	wifi, cell := defaultWifi(), defaultCell()
	wifi.loss = 0 // ADD_ADDR rides an unreliable pure ACK
	tn := buildTwoPath(t, wifi, cell, true)
	srvAddr3 := seg.MakeAddr("192.168.3.1", 8080)
	tn.net.AddDuplexRoute(tn.wifiAddr.IP, srvAddr3.IP, tn.client, tn.server,
		[]*netem.Link{tn.wifiUp}, []*netem.Link{tn.wifiDown})
	tn.net.AddDuplexRoute(tn.cellAddr.IP, srvAddr3.IP, tn.client, tn.server,
		[]*netem.Link{tn.cellUp}, []*netem.Link{tn.cellDown})

	cfg := DefaultConfig()
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	srv.AdvertiseAddrs = []seg.Addr{tn.srvAddr2, srvAddr3}
	srv.OnConn = func(c *Conn) { c.OnData = func(int64) {} }
	onWire := map[uint8]int{}
	tn.server.AddTap(func(dir netem.Direction, _ sim.Time, s *seg.Segment) {
		d, err := seg.Decode(seg.Encode(s))
		if err != nil {
			t.Errorf("captured frame does not decode: %v", err)
		} else if dir == netem.Egress && d.Has(seg.OptAddAddr) {
			onWire[d.AddAddr.AddrID]++
		}
	})
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs:     []seg.Addr{tn.wifiAddr, tn.cellAddr},
		ServerAddr:     tn.srvAddr,
		JoinAdvertised: true,
		Config:         cfg,
	}, tn.rng.Child("cli"))
	tn.sim.RunUntil(5 * sim.Second)

	joined := map[seg.Addr]int{}
	for _, sf := range conn.Subflows() {
		if sf.EP.Established() {
			joined[sf.EP.Remote]++
		}
	}
	for _, a := range []seg.Addr{tn.srvAddr, tn.srvAddr2, srvAddr3} {
		if joined[a] != 2 {
			t.Errorf("client holds %d subflows to %v, want one per interface", joined[a], a)
		}
	}
	if len(onWire) != 2 || onWire[0x10] != 1 || onWire[0x11] != 1 {
		t.Errorf("encoded ADD_ADDR frames by AddrID = %v, want 0x10 and 0x11 once each", onWire)
	}
}

// A tiny shared receive buffer forces window stalls; the window-update
// path (PushAck after reorder drains) must keep the transfer alive to
// completion.
func TestSmallSharedBufferStillCompletes(t *testing.T) {
	cell := defaultCell()
	cell.prop = 120 * sim.Millisecond
	tn := buildTwoPath(t, defaultWifi(), cell, false)
	cfg := DefaultConfig()
	cfg.TCP.RcvBuf = 48 * units.KB
	cli, _, done := tn.download(t, 2*units.MB, cfg, false)
	if done <= 0 {
		t.Fatal("no completion")
	}
	if cli.Reorder().MaxBuffered > 48*units.KB {
		t.Errorf("reorder buffer grew to %d, beyond the 48KB shared buffer", cli.Reorder().MaxBuffered)
	}
}

// Tokens are stable hashes: both sides derive the same token from the
// same key, and the server indexes connections under both.
func TestTokenRouting(t *testing.T) {
	if token(12345) != token(12345) {
		t.Error("token not deterministic")
	}
	if token(1) == token(2) {
		t.Error("distinct keys collide immediately")
	}
}
