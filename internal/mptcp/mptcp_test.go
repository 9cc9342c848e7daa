package mptcp

import (
	"testing"

	"mptcplab/internal/cc"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// twoPathNet is a client with wifi+cell interfaces and a server with
// one (optionally two) interfaces.
type twoPathNet struct {
	sim    *sim.Simulator
	net    *netem.Network
	client *netem.Host
	server *netem.Host
	rng    *sim.RNG

	wifiAddr, cellAddr seg.Addr
	srvAddr, srvAddr2  seg.Addr

	wifiUp, wifiDown, cellUp, cellDown *netem.Link
}

type pathParams struct {
	rate  units.BitRate
	prop  sim.Time
	loss  float64
	queue units.ByteCount
}

func buildTwoPath(t testing.TB, wifi, cell pathParams, serverSecondIface bool) *twoPathNet {
	t.Helper()
	s := sim.New()
	rng := sim.NewRNG(7)
	n := netem.NewNetwork(s)
	client := n.NewHost("client")
	server := n.NewHost("server")

	mk := func(name string, p pathParams) (up, down *netem.Link) {
		up = netem.NewLink(s, rng, name+"-up")
		up.Rate, up.PropDelay, up.QueueLimit = p.rate, p.prop, p.queue
		down = netem.NewLink(s, rng, name+"-down")
		down.Rate, down.PropDelay, down.QueueLimit = p.rate, p.prop, p.queue
		if p.loss > 0 {
			down.Loss = netem.BernoulliLoss{P: p.loss}
		}
		return
	}
	wifiUp, wifiDown := mk("wifi", wifi)
	cellUp, cellDown := mk("cell", cell)

	tn := &twoPathNet{
		sim: s, net: n, client: client, server: server, rng: rng,
		wifiAddr: seg.MakeAddr("10.0.0.2", 40000),
		cellAddr: seg.MakeAddr("172.16.0.2", 40001),
		srvAddr:  seg.MakeAddr("192.168.1.1", 8080),
		srvAddr2: seg.MakeAddr("192.168.2.1", 8080),
		wifiUp:   wifiUp, wifiDown: wifiDown, cellUp: cellUp, cellDown: cellDown,
	}
	n.AddDuplexRoute(tn.wifiAddr.IP, tn.srvAddr.IP, client, server,
		[]*netem.Link{wifiUp}, []*netem.Link{wifiDown})
	n.AddDuplexRoute(tn.cellAddr.IP, tn.srvAddr.IP, client, server,
		[]*netem.Link{cellUp}, []*netem.Link{cellDown})
	if serverSecondIface {
		// Second server interface shares the access links (Figure 1:
		// the bottleneck is the wireless access, not the server LAN).
		n.AddDuplexRoute(tn.wifiAddr.IP, tn.srvAddr2.IP, client, server,
			[]*netem.Link{wifiUp}, []*netem.Link{wifiDown})
		n.AddDuplexRoute(tn.cellAddr.IP, tn.srvAddr2.IP, client, server,
			[]*netem.Link{cellUp}, []*netem.Link{cellDown})
	}
	return tn
}

func defaultWifi() pathParams {
	return pathParams{rate: 25 * units.Mbps, prop: 10 * sim.Millisecond, loss: 0.016, queue: 256 * units.KB}
}

func defaultCell() pathParams {
	return pathParams{rate: 15 * units.Mbps, prop: 30 * sim.Millisecond, loss: 0, queue: 2 * units.MB}
}

// download runs a server->client transfer of size bytes over MPTCP and
// returns the client connection and completion time.
func (tn *twoPathNet) download(t testing.TB, size int, cfg Config, fourPath bool) (*Conn, *Conn, sim.Time) {
	t.Helper()
	var serverConn *Conn
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	if fourPath {
		srv.AdvertiseAddrs = []seg.Addr{tn.srvAddr2}
	}
	srv.OnConn = func(c *Conn) {
		serverConn = c
		reqSeen := int64(0)
		c.OnData = func(n int64) {
			reqSeen += n
			if reqSeen >= 100 { // "request" fully received
				c.Write(size)
				c.Close()
			}
		}
	}

	var done sim.Time = -1
	var rcvd int64
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs:     []seg.Addr{tn.wifiAddr, tn.cellAddr},
		Labels:         []string{"wifi", "cell"},
		ServerAddr:     tn.srvAddr,
		JoinAdvertised: fourPath,
		Config:         cfg,
	}, tn.rng.Child("cli"))
	conn.OnData = func(n int64) {
		rcvd += n
		if rcvd >= int64(size) && done < 0 {
			done = tn.sim.Now()
		}
	}
	conn.OnRemoteClose = func() { conn.Close() }
	conn.OnEstablished = func() { conn.Write(100) } // the "HTTP request"

	tn.sim.RunUntil(20 * 60 * sim.Second)
	if rcvd != int64(size) {
		t.Fatalf("client received %d of %d bytes; server=%v client=%v",
			rcvd, size, serverConn, conn)
	}
	return conn, serverConn, done
}

func TestTwoPathDownloadCompletes(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	cli, srv, done := tn.download(t, 4*units.MB, DefaultConfig(), false)
	if len(cli.Subflows()) != 2 {
		t.Fatalf("client has %d subflows, want 2", len(cli.Subflows()))
	}
	if len(srv.Subflows()) != 2 {
		t.Fatalf("server has %d subflows, want 2", len(srv.Subflows()))
	}
	if done <= 0 {
		t.Fatal("no completion time")
	}
	// Both paths should carry data for a 4MB transfer.
	for _, sf := range srv.Subflows() {
		if sf.EP.Stats.BytesSent == 0 {
			t.Errorf("subflow %d (%s) sent nothing", sf.ID, sf.Label)
		}
	}
}

func TestSmallFlowPrefersDefaultPath(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
	// 8 KB: paper §4.1 — the transfer finishes before the cellular
	// path can contribute.
	_, srv, done := tn.download(t, 8*units.KB, DefaultConfig(), false)
	first := srv.Subflows()[0]
	if first.EP.Stats.BytesSent < 8*units.KB {
		t.Errorf("first (wifi) subflow carried %d bytes, want all 8KB", first.EP.Stats.BytesSent)
	}
	if done > 150*sim.Millisecond {
		t.Errorf("8KB took %v; want under ~3 wifi RTTs", done)
	}
}

func TestLargeFlowUsesCellularHeavily(t *testing.T) {
	wifi := defaultWifi()
	wifi.rate = 8 * units.Mbps // lossy and now slower
	tn := buildTwoPath(t, wifi, defaultCell(), false)
	_, srv, _ := tn.download(t, 16*units.MB, DefaultConfig(), false)
	var wifiBytes, cellBytes int64
	for i, sf := range srv.Subflows() {
		if i == 0 {
			wifiBytes = sf.EP.Stats.BytesSent
		} else {
			cellBytes += sf.EP.Stats.BytesSent
		}
	}
	share := float64(cellBytes) / float64(wifiBytes+cellBytes)
	if share < 0.4 {
		t.Errorf("cellular share %.2f; want > 0.4 for a large flow on a weak wifi", share)
	}
}

func TestFourPathEstablishesFourSubflows(t *testing.T) {
	tn := buildTwoPath(t, defaultWifi(), defaultCell(), true)
	cli, srv, _ := tn.download(t, 4*units.MB, DefaultConfig(), true)
	if got := len(cli.Subflows()); got != 4 {
		t.Fatalf("client has %d subflows, want 4", got)
	}
	if got := len(srv.Subflows()); got != 4 {
		t.Fatalf("server has %d subflows, want 4", got)
	}
	if srv.server.AcceptedJoins != 3 {
		t.Errorf("server accepted %d joins, want 3", srv.server.AcceptedJoins)
	}
}

func TestSimultaneousSYNJoinsImmediately(t *testing.T) {
	cfgDelayed := DefaultConfig()
	cfgSim := DefaultConfig()
	cfgSim.SimultaneousSYN = true

	measureJoin := func(cfg Config) sim.Time {
		tn := buildTwoPath(t, defaultWifi(), defaultCell(), false)
		var joinUp sim.Time = -1
		srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
		srv.OnConn = func(c *Conn) {
			c.OnSubflowUp = func(sf *Subflow) {
				if sf.ID == 1 && joinUp < 0 {
					joinUp = tn.sim.Now()
				}
			}
		}
		conn := Dial(tn.net, tn.client, DialOpts{
			LocalAddrs: []seg.Addr{tn.wifiAddr, tn.cellAddr},
			ServerAddr: tn.srvAddr,
			Config:     cfg,
		}, tn.rng.Child("cli"))
		_ = conn
		tn.sim.RunUntil(5 * sim.Second)
		if joinUp < 0 {
			t.Fatal("second subflow never established")
		}
		return joinUp
	}

	tDelayed := measureJoin(cfgDelayed)
	tSim := measureJoin(cfgSim)
	if tSim >= tDelayed {
		t.Errorf("simultaneous SYN join at %v, delayed at %v; want earlier", tSim, tDelayed)
	}
	// Delayed mode must wait at least one wifi RTT before the cell SYN
	// leaves, so roughly wifiRTT + cellRTT total.
	if tDelayed < 75*sim.Millisecond {
		t.Errorf("delayed join established at %v; expected after ~80ms (wifi RTT + cell RTT)", tDelayed)
	}
}

func TestOFODelayMeasuredOnAsymmetricPaths(t *testing.T) {
	cell := defaultCell()
	cell.prop = 150 * sim.Millisecond // 3G-like
	tn := buildTwoPath(t, defaultWifi(), cell, false)

	cfg := DefaultConfig()
	samples := 0
	var maxDelay sim.Time
	srv := NewServer(tn.server, tn.net, tn.srvAddr.Port, cfg, tn.rng.Child("srv"))
	srv.OnConn = func(c *Conn) {
		c.OnData = func(n int64) {}
	}
	var rcvd int64
	size := int64(8 * units.MB)
	conn := Dial(tn.net, tn.client, DialOpts{
		LocalAddrs: []seg.Addr{tn.wifiAddr, tn.cellAddr},
		ServerAddr: tn.srvAddr,
		Config:     cfg,
	}, tn.rng.Child("cli"))
	conn.OnOFOSample = func(d sim.Time, subflowID int) {
		samples++
		if d > maxDelay {
			maxDelay = d
		}
	}
	conn.OnData = func(n int64) { rcvd += n }
	var serverConn *Conn
	srv.OnConn = func(c *Conn) {
		serverConn = c
		c.OnData = func(n int64) {
			if c.BytesWritten() == 0 {
				c.Write(int(size))
				c.Close()
			}
		}
	}
	_ = serverConn
	conn.OnEstablished = func() { conn.Write(64) }
	conn.OnRemoteClose = func() { conn.Close() }
	tn.sim.RunUntil(10 * 60 * sim.Second)

	if rcvd != size {
		t.Fatalf("received %d of %d", rcvd, size)
	}
	if samples == 0 {
		t.Fatal("no OFO samples")
	}
	if maxDelay < 20*sim.Millisecond {
		t.Errorf("max OFO delay %v; want visible reordering with a 300ms-RTT path", maxDelay)
	}
}

func TestControllersProduceDifferentLargeFlowBehaviour(t *testing.T) {
	run := func(ctrl cc.Controller) sim.Time {
		wifi := defaultWifi()
		tn := buildTwoPath(t, wifi, defaultCell(), false)
		cfg := DefaultConfig()
		cfg.Controller = ctrl
		cfg.TCP.Controller = ctrl
		_, _, done := tn.download(t, 16*units.MB, cfg, false)
		return done
	}
	reno := run(cc.Reno{})
	coupled := run(cc.Coupled{})
	olia := run(cc.OLIA{})
	t.Logf("16MB download: reno=%v coupled=%v olia=%v", reno, coupled, olia)
	// Reno is the most aggressive (paper §4.2): it should not be the
	// slowest by a wide margin.
	if reno > coupled*3/2 && reno > olia*3/2 {
		t.Errorf("reno (%v) much slower than coupled (%v)/olia (%v); aggression inverted", reno, coupled, olia)
	}
}

func TestDataDeliveredInOrderExactlyOnce(t *testing.T) {
	// Heavy loss both paths: delivery must still be exact.
	wifi := pathParams{rate: 10 * units.Mbps, prop: 10 * sim.Millisecond, loss: 0.05, queue: 256 * units.KB}
	cell := pathParams{rate: 5 * units.Mbps, prop: 60 * sim.Millisecond, loss: 0.02, queue: 1 * units.MB}
	tn := buildTwoPath(t, wifi, cell, false)
	cli, _, _ := tn.download(t, 2*units.MB, DefaultConfig(), false)
	rb := cli.Reorder()
	if rb.Buffered != 0 {
		t.Errorf("reorder buffer holds %d bytes after completion", rb.Buffered)
	}
	if rb.Delivered < 2*units.MB {
		t.Errorf("delivered %d < 2MB", rb.Delivered)
	}
}
