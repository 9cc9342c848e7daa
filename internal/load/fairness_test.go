package load

import (
	"testing"

	"mptcplab/internal/cc"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
)

// TestTCPFairnessOverSharedBottleneck: N near-simultaneous single-path
// TCP flows through the one shared AP must split it almost evenly —
// Jain's index over per-flow goodput at least 0.95. This validates the
// harness itself: if the engine's shared topology or accounting were
// skewed, every fleet-scale conclusion downstream would be too.
func TestTCPFairnessOverSharedBottleneck(t *testing.T) {
	res := Run(Config{
		Clients:    8,
		Flows:      8,
		Sizes:      FixedSize(2 * units.MB),
		Transports: TransportMix{WiFi: 1},
		Duration:   200 * sim.Millisecond, // near-simultaneous arrivals
		Drain:      120 * sim.Second,
		Seed:       5,
		SelfCheck:  true,
	})
	if res.Completed != 8 {
		t.Fatalf("completed %d/8 flows", res.Completed)
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %d (%s)", res.Violations, res.FirstViolation)
	}
	if j := res.Goodput.Jain(); j < 0.95 {
		t.Errorf("Jain index %.3f < 0.95 for %d competing TCP flows (goodput mean %.0f, stddev %.0f)",
			j, res.Completed, res.Goodput.Mean(), res.Goodput.Stddev())
	}
}

// couplingShare runs one MPTCP connection (both subflows through the
// SAME bottleneck) against one plain TCP flow and reports the fraction
// of bottleneck bytes the MPTCP connection took.
func couplingShare(t *testing.T, controller string) float64 {
	t.Helper()
	ctrl, err := cc.New(controller)
	if err != nil {
		t.Fatal(err)
	}
	return couplingShareCtrl(t, ctrl)
}

func couplingShareCtrl(t *testing.T, ctrl cc.Controller) float64 {
	t.Helper()
	s := sim.New()
	rng := sim.NewRNG(99)
	n := netem.NewNetwork(s)
	server := n.NewHost("server")
	client := n.NewHost("client")

	mkLink := func(name string, rate units.BitRate) *netem.Link {
		l := netem.NewLink(s, rng.Child(name), name)
		l.Rate = rate
		l.PropDelay = 10 * sim.Millisecond
		l.QueueLimit = 128 * units.KB
		return l
	}
	down := mkLink("shared-down", 16*units.Mbps) // the contested bottleneck
	up := mkLink("shared-up", 16*units.Mbps)

	srvAddr := seg.MakeAddr("192.168.1.1", 8080)
	addrs := []seg.Addr{
		seg.MakeAddr("10.0.0.2", 41000), // MPTCP subflow 1
		seg.MakeAddr("10.0.1.2", 41001), // MPTCP subflow 2
		seg.MakeAddr("10.0.2.2", 41002), // competing plain TCP
	}
	for _, a := range addrs {
		n.AddDuplexRoute(a.IP, srvAddr.IP, client, server,
			[]*netem.Link{up}, []*netem.Link{down})
	}

	tcpCfg := tcp.DefaultConfig()
	mpCfg := mptcp.DefaultConfig()
	mpCfg.TCP = tcpCfg
	mpCfg.Controller = ctrl

	// Large enough that neither transfer finishes inside the
	// measurement window: the share must reflect ongoing contention,
	// not completion timing.
	const body = 512 * units.MB
	srv := mptcp.NewServer(server, n, 8080, mpCfg, rng.Child("server"))
	srv.OnConn = func(c *mptcp.Conn) {
		fs := &web.FileServer{SizeFor: func(int) int { return int(body) }}
		fs.ServeStream(web.MPTCPStream{Conn: c})
	}
	srv.OnPlainConn = func(ep *tcp.Endpoint) bool {
		fs := &web.FileServer{SizeFor: func(int) int { return int(body) }}
		fs.ServeStream(web.TCPStream{EP: ep})
		return true
	}

	var mpConn *mptcp.Conn
	var tcpEP *tcp.Endpoint
	s.At(0, "dial-mptcp", func() {
		mpConn = mptcp.Dial(n, client, mptcp.DialOpts{
			LocalAddrs: addrs[:2],
			Labels:     []string{"a", "b"},
			ServerAddr: srvAddr,
			Config:     mpCfg,
		}, rng.Child("dial"))
		web.NewGetter(web.MPTCPStream{Conn: mpConn}).Get(int(body), nil)
	})
	s.At(0, "dial-tcp", func() {
		tcpEP = tcp.NewEndpoint(client, n, addrs[2], srvAddr, tcpCfg, rng.Child("tcp"))
		web.NewGetter(web.TCPStream{EP: tcpEP}).Get(int(body), nil)
		tcpEP.Connect()
	})

	// Skip the first 20 s (slow start, initial loss synchronization)
	// and measure the share over the following 60 s of steady state.
	s.RunUntil(20 * sim.Second)
	mp0, tcp0 := mpConn.Reorder().Delivered, tcpEP.Stats.BytesRcvd
	s.RunUntil(80 * sim.Second)
	mpBytes := mpConn.Reorder().Delivered - mp0
	tcpBytes := tcpEP.Stats.BytesRcvd - tcp0
	if mpBytes == 0 || tcpBytes == 0 {
		t.Fatalf("%s: a flow starved outright (mptcp %d, tcp %d)", ctrl.Name(), mpBytes, tcpBytes)
	}
	return float64(mpBytes) / float64(mpBytes+tcpBytes)
}

// TestCoupledVsUncoupledFairness: with both subflows crossing the same
// bottleneck as a regular TCP flow, uncoupled MPTCP (Reno per subflow)
// behaves like two flows and takes ~2/3 of the link; coupled and OLIA
// each back off jointly and leave the single-path competitor close to
// half — the fairness goal coupled congestion control exists for.
func TestCoupledVsUncoupledFairness(t *testing.T) {
	uncoupled := couplingShare(t, "reno")
	coupled := couplingShare(t, "coupled")
	olia := couplingShare(t, "olia")
	t.Logf("MPTCP share of shared bottleneck: reno %.3f, coupled %.3f, olia %.3f",
		uncoupled, coupled, olia)

	if uncoupled < 0.60 {
		t.Errorf("uncoupled MPTCP took only %.3f; expected ~2/3 of the link", uncoupled)
	}
	for name, share := range map[string]float64{"coupled": coupled, "olia": olia} {
		if share >= uncoupled-0.10 {
			t.Errorf("%s share %.3f not clearly below uncoupled %.3f", name, share, uncoupled)
		}
		if share > 0.58 {
			t.Errorf("%s share %.3f; a coupled controller should stay near one fair share", name, share)
		}
		if share < 0.35 {
			t.Errorf("%s share %.3f; coupling should not starve the MPTCP connection", name, share)
		}
	}
}
