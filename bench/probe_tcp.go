package main

import (
	"fmt"

	"mptcplab/internal/cc"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
)

// linkSpec is one symmetric up/down link pair of a probe network.
type linkSpec struct {
	rate  units.BitRate
	prop  sim.Time
	queue units.ByteCount
	loss  float64 // Bernoulli loss on the down (data) direction
}

// probeNet is a client and a server joined by one link pair per
// client address.
type probeNet struct {
	sim            *sim.Simulator
	net            *netem.Network
	client, server *netem.Host
	rng            *sim.RNG
	srvAddr        seg.Addr
	cliAddrs       []seg.Addr
}

const probePort = 8080

func newProbeNet(paths []linkSpec) *probeNet {
	s := sim.New()
	pn := &probeNet{
		sim: s, net: netem.NewNetwork(s), rng: sim.NewRNG(42),
		srvAddr: seg.MakeAddr("192.168.1.1", probePort),
	}
	pn.client, pn.server = pn.net.NewHost("client"), pn.net.NewHost("server")
	for i, p := range paths {
		mk := func(dir string) *netem.Link {
			l := netem.NewLink(s, pn.rng, fmt.Sprintf("p%d-%s", i, dir))
			l.Rate, l.PropDelay, l.QueueLimit = p.rate, p.prop, p.queue
			return l
		}
		up, down := mk("up"), mk("down")
		if p.loss > 0 {
			down.Loss = netem.BernoulliLoss{P: p.loss}
		}
		addr := seg.MakeAddr(fmt.Sprintf("10.0.%d.2", i), 40000)
		pn.cliAddrs = append(pn.cliAddrs, addr)
		pn.net.AddDuplexRoute(addr.IP, pn.srvAddr.IP, pn.client, pn.server,
			[]*netem.Link{up}, []*netem.Link{down})
	}
	return pn
}

// serveTCP makes the server answer every connection with size bytes
// and a close; accepted, when non-nil, sees each server endpoint.
func (pn *probeNet) serveTCP(cfg tcp.Config, size int, accepted func(*tcp.Endpoint)) {
	lis := tcp.Listen(pn.server, pn.net, probePort, cfg, pn.rng.Child("srv"))
	lis.OnAccept = func(ep *tcp.Endpoint, _ *seg.Segment) bool {
		if accepted != nil {
			accepted(ep)
		}
		ep.OnEstablished = func() {
			ep.Write(size)
			ep.Close()
		}
		return true
	}
}

// serveMPTCP makes the server answer a 100-byte request on every
// connection with size bytes and a close.
func (pn *probeNet) serveMPTCP(cfg mptcp.Config, size int) {
	srv := mptcp.NewServer(pn.server, pn.net, probePort, cfg, pn.rng.Child("srv"))
	srv.OnConn = func(c *mptcp.Conn) {
		var req int64
		c.OnData = func(n int64) {
			if req += n; req >= 100 {
				c.Write(size)
				c.Close()
			}
		}
	}
}

// transfer is what one simulated download cost the host.
type transfer struct {
	measured
	events  uint64
	retrans float64 // retransmitted ÷ sent data packets at the sender
}

// tcpDownload moves size bytes server → client over one TCP connection
// on a fresh single-path network.
func tcpDownload(link linkSpec, size int, cfg tcp.Config) (transfer, error) {
	pn := newProbeNet([]linkSpec{link})
	var server *tcp.Endpoint
	pn.serveTCP(cfg, size, func(ep *tcp.Endpoint) { server = ep })
	client := tcp.NewEndpoint(pn.client, pn.net, pn.cliAddrs[0], pn.srvAddr, cfg, pn.rng.Child("cli"))
	rcvd := 0
	client.OnDeliver = func(n int) {
		if rcvd += n; rcvd >= size {
			client.Close()
		}
	}
	var t transfer
	t.measured = measure(func() {
		client.Connect()
		pn.sim.RunUntil(30 * sim.Minute)
	})
	if rcvd != size {
		return t, fmt.Errorf("tcp probe: received %d of %d bytes", rcvd, size)
	}
	t.events = pn.sim.Processed()
	t.retrans = server.Stats.LossRate()
	return t, nil
}

// probeTCPTransfer moves simulated bytes over one link in the three
// regimes the paper separates: a clean shallow queue, Verizon's deep
// drop-tail queue kept full (initial ssthresh lifted, so slow start
// fills the buffer as the backlog runs do in steady state), and 2 %
// random loss. The bloated transfer is a quarter of the size of the
// others: with the window in the hundreds of segments it costs two
// orders of magnitude more host time per byte.
func probeTCPTransfer(*probeEnv) (map[string]float64, error) {
	const size = 32 * units.MB
	mb := float64(size) / 1e6
	out := map[string]float64{}

	clean, err := tcpDownload(linkSpec{rate: 20 * units.Mbps, prop: 10 * sim.Millisecond, queue: 64 * units.KB}, size, tcp.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out["tcp.clean_mbytes_per_s"] = mb / clean.seconds
	out["tcp.allocs_per_mbyte"] = clean.mallocs / mb
	out["tcp.events_per_mbyte"] = float64(clean.events) / mb

	deep := tcp.DefaultConfig()
	deep.SSThresh = 0
	bloat, err := tcpDownload(linkSpec{rate: 9 * units.Mbps, prop: 20 * sim.Millisecond, queue: 768 * units.KB}, size/4, deep)
	if err != nil {
		return nil, err
	}
	out["tcp.bloat_mbytes_per_s"] = mb / 4 / bloat.seconds

	lossy, err := tcpDownload(linkSpec{rate: 20 * units.Mbps, prop: 10 * sim.Millisecond, queue: 1 * units.MB, loss: 0.02}, size, tcp.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out["tcp.lossy_mbytes_per_s"] = mb / lossy.seconds
	out["tcp.retrans_share"] = lossy.retrans
	return out, nil
}

// probeTCPConn opens, uses (8 KB) and closes connections one after
// another on one network: handshake, slow start, teardown, TIME_WAIT.
func probeTCPConn(*probeEnv) (map[string]float64, error) {
	const conns, size = 2000, 8 * units.KB
	pn := newProbeNet([]linkSpec{{rate: 20 * units.Mbps, prop: 10 * sim.Millisecond, queue: 256 * units.KB}})
	cfg := tcp.DefaultConfig()
	pn.serveTCP(cfg, size, nil)
	done := 0
	m := measure(func() {
		for i := 0; i < conns; i++ {
			local := pn.cliAddrs[0]
			local.Port = uint16(10000 + i)
			ep := tcp.NewEndpoint(pn.client, pn.net, local, pn.srvAddr, cfg, pn.rng.Child("cli"))
			rcvd := 0
			ep.OnDeliver = func(n int) {
				if rcvd += n; rcvd >= size {
					done++
					ep.Close()
				}
			}
			ep.Connect()
			pn.sim.Run()
		}
	})
	if done != conns {
		return nil, fmt.Errorf("tcp conn probe: %d of %d connections completed", done, conns)
	}
	return map[string]float64{
		"tcp.conn_us":         m.seconds / conns * 1e6,
		"tcp.allocs_per_conn": m.mallocs / conns,
	}, nil
}

// mptcpDownload moves size bytes server → client over one MPTCP
// connection using every client address of pn.
func mptcpDownload(pn *probeNet, size int) (measured, error) {
	cfg := mptcp.DefaultConfig()
	pn.serveMPTCP(cfg, size)
	var rcvd int64
	var conn *mptcp.Conn
	m := measure(func() {
		conn = mptcp.Dial(pn.net, pn.client, mptcp.DialOpts{
			LocalAddrs: pn.cliAddrs, ServerAddr: pn.srvAddr, Config: cfg,
		}, pn.rng.Child("cli"))
		conn.OnData = func(n int64) { rcvd += n }
		conn.OnRemoteClose = func() { conn.Close() }
		conn.OnEstablished = func() { conn.Write(100) }
		pn.sim.RunUntil(30 * sim.Minute)
	})
	if rcvd != int64(size) {
		return m, fmt.Errorf("mptcp probe: received %d of %d bytes over %d paths", rcvd, size, len(pn.cliAddrs))
	}
	if got := len(conn.Subflows()); got != len(pn.cliAddrs) {
		return m, fmt.Errorf("mptcp probe: %d subflows over %d paths", got, len(pn.cliAddrs))
	}
	return m, nil
}

// probeMPTCPPaths is the subflow-count axis: 32 simulated MB over 1,
// 2, 4 and 8 symmetric lossless paths (minrtt, coupled), and over an
// asymmetric WiFi+LTE pair. paths1 against tcp.clean is the MPTCP tax
// at one path; the curve should stay about linear in the path count.
func probeMPTCPPaths(*probeEnv) (map[string]float64, error) {
	const size = 32 * units.MB
	mb := float64(size) / 1e6
	out := map[string]float64{}
	sym := linkSpec{rate: 20 * units.Mbps, prop: 10 * sim.Millisecond, queue: 128 * units.KB}
	for _, n := range []int{1, 2, 4, 8} {
		paths := make([]linkSpec, n)
		for i := range paths {
			paths[i] = sym
		}
		m, err := mptcpDownload(newProbeNet(paths), size)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("mptcp.paths%d_mbytes_per_s", n)] = mb / m.seconds
		if n == 2 {
			out["mptcp.allocs_per_mbyte"] = m.mallocs / mb
		}
	}
	m, err := mptcpDownload(newProbeNet([]linkSpec{
		{rate: 20 * units.Mbps, prop: 9 * sim.Millisecond, queue: 96 * units.KB},
		{rate: 11 * units.Mbps, prop: 27 * sim.Millisecond, queue: 1 * units.MB},
	}), size)
	if err != nil {
		return nil, err
	}
	out["mptcp.asym_mbytes_per_s"] = mb / m.seconds
	return out, nil
}

// probeMPTCPConn dials, joins the second path, moves 8 KB and closes,
// one connection after another.
func probeMPTCPConn(*probeEnv) (map[string]float64, error) {
	const conns, size = 1000, 8 * units.KB
	link := linkSpec{rate: 20 * units.Mbps, prop: 10 * sim.Millisecond, queue: 256 * units.KB}
	pn := newProbeNet([]linkSpec{link, link})
	cfg := mptcp.DefaultConfig()
	pn.serveMPTCP(cfg, size)
	done := 0
	m := measure(func() {
		for i := 0; i < conns; i++ {
			locals := append([]seg.Addr(nil), pn.cliAddrs...)
			for k := range locals {
				locals[k].Port = uint16(10000 + i)
			}
			conn := mptcp.Dial(pn.net, pn.client, mptcp.DialOpts{
				LocalAddrs: locals, ServerAddr: pn.srvAddr, Config: cfg,
			}, pn.rng.Child("cli"))
			var rcvd int64
			conn.OnData = func(n int64) {
				if rcvd += n; rcvd == size {
					done++
				}
			}
			conn.OnRemoteClose = func() { conn.Close() }
			conn.OnEstablished = func() { conn.Write(100) }
			pn.sim.Run()
		}
	})
	if done != conns {
		return nil, fmt.Errorf("mptcp conn probe: %d of %d connections completed", done, conns)
	}
	return map[string]float64{"mptcp.conn_us": m.seconds / conns * 1e6}, nil
}

// probeReorder times the connection-level reorder buffer: in-order
// arrivals, and the alternating hole-then-heal pattern two paths of
// unequal delay produce.
func probeReorder(*probeEnv) (map[string]float64, error) {
	out := map[string]float64{}
	rb := mptcp.NewReorderBuffer(0)
	var at uint64
	out["mptcp.reorder_inorder_ns"] = nsPerOp(1_000_000, func(i int) {
		rb.Insert(sim.Time(i), at, at+1460, 0)
		at += 1460
	})
	rb, at = mptcp.NewReorderBuffer(0), 0
	out["mptcp.reorder_interleaved_ns"] = nsPerOp(500_000, func(i int) {
		rb.Insert(sim.Time(i), at+1460, at+2920, 1)
		rb.Insert(sim.Time(i), at, at+1460, 0)
		at += 2920
	}) / 2
	return out, nil
}

// fakeFlow is a congestion-controller view of one established subflow.
type fakeFlow struct{ cwnd, srtt float64 }

func (f fakeFlow) Cwnd() float64                { return f.cwnd }
func (f fakeFlow) SRTT() float64                { return f.srtt }
func (f fakeFlow) Established() bool            { return true }
func (f fakeFlow) AckedSinceLoss() int64        { return 1 << 20 }
func (f fakeFlow) AckedPrevLossInterval() int64 { return 1 << 19 }

// probeCC times the per-ACK window increase of the two coupled
// controllers, whose cost is a loop over the connection's subflows.
func probeCC(*probeEnv) (map[string]float64, error) {
	out := map[string]float64{}
	var sink float64
	for _, n := range []int{2, 8} {
		flows := make([]cc.Flow, n)
		for i := range flows {
			flows[i] = fakeFlow{cwnd: 20 + float64(i), srtt: 0.03 + 0.01*float64(i)}
		}
		out[fmt.Sprintf("cc.ack_ns_paths%d", n)] = nsPerOp(200_000, func(i int) {
			sink += cc.Coupled{}.Increase(flows, i%n, 1)
			sink += cc.OLIA{}.Increase(flows, i%n, 1)
		}) / 2
	}
	if sink == 0 {
		return nil, fmt.Errorf("cc probe: controllers never increased a window")
	}
	return out, nil
}

// probePathmodel times drawing one run's link parameters and building
// its link pair, the per-run cost of SampleProfiles.
func probePathmodel(*probeEnv) (map[string]float64, error) {
	s := sim.New()
	rng := sim.NewRNG(7)
	att := pathmodel.ATT()
	return map[string]float64{
		"pathmodel.links_us": nsPerOp(5_000, func(int) {
			att.Sample(rng).Links(s, rng)
		}) / 1e3,
	}, nil
}
