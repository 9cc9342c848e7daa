// Package world owns the paper's one testbed (§3.1, Figure 1) at any
// scale: N dual-homed clients behind one shared WiFi link pair and one
// shared cellular pair, a 1- or 2-interface server on gigabit LAN
// links, the one server socket, the client dial, and the address-level
// handover hooks chaos schedules drive. The paper's testbed is
// clients=1; the fleet engine's coffee shop is the same world with
// thousands. experiment, load and check are all built on it, so every
// table, sweep and fuzz case runs through the same topology, the same
// listen/dial wiring and the same handover semantics.
//
// Build lays down only what every run shares — the access links, the
// server and its LAN pairs — and records the fleet's size; a client's
// host, addresses and routes are built the first time Client asks for
// it. A run pays for the clients that dial, not for the fleet they were
// drawn from, and because building draws no randomness and schedules
// nothing, when a client is built never shows in what the run does.
//
// A World is also the reusable arena sweep workers keep across jobs:
// Reset restarts the simulator's clock and tie-break counter and drops
// every host and route while the event, timer and segment pools stay
// warm and the finished run's connection objects — TCP endpoints, MPTCP
// connections and subflows — go to the network's free lists, so a run
// on a Reset world is event-for-event identical to the same run on a
// fresh one.
package world

import (
	"fmt"
	"strings"
	"time"

	"mptcplab/internal/chaos"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
)

// The server's addresses: Apache on 8080 (AT&T proxies port 80), the
// second interface used by Figure 1's dashed 4-path runs.
var (
	ServerAddr  = seg.MakeAddr("192.168.1.1", 8080)
	ServerAddr2 = seg.MakeAddr("192.168.2.1", 8080)
)

// MaxClients bounds the world size the address plans support.
const MaxClients = 16384

// Access is the four access links and the cellular radio every client
// shares. Callers build them — from a pathmodel.Profile or raw
// parameters, each on its own RNG child — because how an access
// network is parameterized and seeded is the caller's contract with
// its golden outputs, not the world's.
type Access struct {
	WiFiUp, WiFiDown *netem.Link
	CellUp, CellDown *netem.Link
	CellRadio        *netem.Radio
}

// Plan is the address plan and the remaining per-caller constants, as
// data: each field exists because the paper's testbed and the fleet
// need different values.
type Plan struct {
	// DualHomed adds the server's second interface and its LAN pair.
	DualHomed bool
	// ClientIPs derives client i's two interface addresses.
	ClientIPs func(i int) (wifi, cell [4]byte)
	// Ports numbers a client's k-th (WiFi, cellular) port allocation.
	Ports func(k int) (wifi, cell uint16)
	// LANQueue is the server LAN links' drop-tail limit.
	LANQueue units.ByteCount
}

// Paper is Figure 1's plan: one client at 10.0.0.2 / 172.16.0.2
// dialing from ports 40000/40001, rejoining after a handover from
// 41001 upwards.
func Paper(dualHomed bool) Plan {
	return Plan{
		DualHomed: dualHomed,
		ClientIPs: func(int) (wifi, cell [4]byte) {
			return [4]byte{10, 0, 0, 2}, [4]byte{172, 16, 0, 2}
		},
		Ports: func(k int) (wifi, cell uint16) {
			if k == 0 {
				return 40000, 40001
			}
			return uint16(41000 + k), uint16(41000 + k)
		},
		LANQueue: 16 * units.MB,
	}
}

// Client is one dual-homed host behind the shared access links.
type Client struct {
	Host           *netem.Host
	WiFiIP, CellIP [4]byte

	ports func(k int) (wifi, cell uint16)
	next  int
}

// Addrs allocates a fresh (WiFi, cellular) local address pair: one per
// dialed flow, and one per rejoin (which uses the half on the returning
// interface — reusing a withdrawn 4-tuple would race a stale server
// endpoint whose teardown RST was lost).
func (c *Client) Addrs() (wifi, cell seg.Addr) {
	wp, cp := c.ports(c.next)
	c.next++
	return seg.Addr{IP: c.WiFiIP, Port: wp}, seg.Addr{IP: c.CellIP, Port: cp}
}

// World is one materialized Figure-1 network on a reusable simulator.
type World struct {
	Sim *sim.Simulator
	Net *netem.Network

	Access
	Server *netem.Host

	plan    Plan
	ifaces  []iface
	clients []*Client // nil until Client builds one
	onHost  []func(*netem.Host)
	links   []*netem.Link
	cellIPs map[[4]byte]bool
}

// iface is one server interface and the LAN pair behind it.
type iface struct {
	ip      [4]byte
	in, out *netem.Link
}

// New returns an empty world with cold pools.
func New() *World {
	s := sim.New()
	return &World{Sim: s, Net: netem.NewNetwork(s)}
}

// Reset empties the world for its next Build, keeping the pools warm
// and recycling the finished run's connection objects. A Reset world
// reaches nothing of the finished run — no host, link, route or hook,
// not even in the slack of the slices it truncates — so it may wait
// idle between sweeps without pinning one.
func (w *World) Reset() {
	w.Sim.Reset()
	w.Net.Reset()
	w.Access = Access{}
	w.Server = nil
	clear(w.links)
	w.links = w.links[:0]
	clear(w.ifaces)
	w.ifaces = w.ifaces[:0]
	clear(w.clients)
	w.clients = w.clients[:0]
	clear(w.onHost)
	w.onHost = w.onHost[:0]
	clear(w.cellIPs)
}

// Build materializes the topology onto an empty (fresh or Reset)
// world: every client's WiFi and cellular interface reaches each server
// interface through the shared access pair and that interface's LAN
// pair. Sharing is the point — netem links serialize all routes that
// traverse them, so the fleet's contention and the single client's
// self-congestion (why 4-path MPTCP gains little at 512 MB, Figure 11)
// are the same queueing mechanics. Build itself makes the shared part;
// Client makes each client's host and routes at its first use, so its
// cost does not grow with clients.
//
// rng is the parent stream the LAN links derive from: two NewLink draws
// per server interface, in then out, after whatever the caller drew for
// the access links. RNG.Child consumes parent state, so that count and
// position are part of every caller's golden contract; the LAN links
// themselves never draw (no loss, jitter, ARQ or chaos), and no client
// draws at all.
func (w *World) Build(rng *sim.RNG, a Access, clients int, p Plan) {
	if clients < 1 || clients > MaxClients {
		panic(fmt.Sprintf("world: %d clients outside [1,%d]", clients, MaxClients))
	}
	w.Access = a
	w.plan = p
	w.Server = w.Net.NewHost("server")
	w.links = append(w.links[:0], a.WiFiUp, a.WiFiDown, a.CellUp, a.CellDown)
	lan := func(name string) *netem.Link {
		l := netem.NewLink(w.Sim, rng, name)
		l.Rate = 1 * units.Gbps
		l.PropDelay = 500 * sim.Microsecond
		l.QueueLimit = p.LANQueue
		w.links = append(w.links, l)
		return l
	}
	w.ifaces = append(w.ifaces[:0], iface{ServerAddr.IP, lan("srv-in"), lan("srv-out")})
	if p.DualHomed {
		w.ifaces = append(w.ifaces, iface{ServerAddr2.IP, lan("srv2-in"), lan("srv2-out")})
	}

	if cap(w.clients) >= clients {
		w.clients = w.clients[:clients] // Reset left them nil
	} else {
		w.clients = make([]*Client, clients)
	}
	if w.cellIPs == nil {
		w.cellIPs = make(map[[4]byte]bool)
	}
}

// NumClients is the fleet size Build was given.
func (w *World) NumClients() int { return len(w.clients) }

// Client returns client i, building it on the first call: its host,
// its two addresses from the plan and a duplex route from each to every
// server interface. Later calls return the same *Client. Every OnHost
// function runs on the new host before Client returns.
func (w *World) Client(i int) *Client {
	if c := w.clients[i]; c != nil {
		return c
	}
	c := &Client{Host: w.Net.NewHost(fmt.Sprintf("client-%d", i)), ports: w.plan.Ports}
	c.WiFiIP, c.CellIP = w.plan.ClientIPs(i)
	w.clients[i] = c
	w.cellIPs[c.CellIP] = true
	for _, s := range w.ifaces {
		w.Net.AddDuplexRoute(c.WiFiIP, s.ip, c.Host, w.Server,
			[]*netem.Link{w.WiFiUp, s.in}, []*netem.Link{s.out, w.WiFiDown})
		w.Net.AddDuplexRoute(c.CellIP, s.ip, c.Host, w.Server,
			[]*netem.Link{w.CellUp, s.in}, []*netem.Link{s.out, w.CellDown})
	}
	for _, fn := range w.onHost {
		fn(c.Host)
	}
	return c
}

// OnHost runs fn on the server and on every client host: now on those
// built so far, in client order, and on each later one as Client builds
// it — how an observer such as the invariant checker reaches clients it
// could not see when it armed. The next Build forgets fn.
func (w *World) OnHost(fn func(*netem.Host)) {
	fn(w.Server)
	for _, c := range w.clients {
		if c != nil {
			fn(c.Host)
		}
	}
	w.onHost = append(w.onHost, fn)
}

// Links lists every link of the world: the four access links, then the
// LAN pair of each server interface.
func (w *World) Links() []*netem.Link { return w.links }

// IsCell reports whether an address is a client's cellular interface —
// how results attribute subflows to access networks.
func (w *World) IsCell(a seg.Addr) bool { return w.cellIPs[a.IP] }

// Transport selects the stack a client dials with.
type Transport int

// Transports.
const (
	TCPWiFi Transport = iota // single-path TCP over WiFi
	TCPCell                  // single-path TCP over cellular
	MPTCP                    // MPTCP over both
)

// Peer is one end of a connection the world dialed or accepted: exactly
// one of Conn (MPTCP) and EP (single-path TCP) is set.
type Peer struct {
	Conn *mptcp.Conn
	EP   *tcp.Endpoint
}

// Stream adapts the peer for the web layer.
func (p Peer) Stream() web.Stream {
	if p.Conn != nil {
		return web.MPTCPStream{Conn: p.Conn}
	}
	return web.TCPStream{EP: p.EP}
}

// Serve opens the world's one server socket: MPTCP connections via
// MP_CAPABLE and plain-TCP clients on the same port, as the paper's
// Apache served both client kinds. A dual-homed server advertises its
// second interface. accept runs at accept time (before the SYN-ACK)
// and returns the file server to attach; nil refuses the client.
func (w *World) Serve(cfg mptcp.Config, rng *sim.RNG, accept func(Peer) *web.FileServer) {
	srv := mptcp.NewServer(w.Server, w.Net, ServerAddr.Port, cfg, rng)
	if w.plan.DualHomed {
		srv.AdvertiseAddrs = []seg.Addr{ServerAddr2}
	}
	serve := func(p Peer) bool {
		fs := accept(p)
		if fs != nil {
			fs.ServeStream(p.Stream())
		}
		return fs != nil
	}
	srv.OnConn = func(c *mptcp.Conn) { serve(Peer{Conn: c}) }
	srv.OnPlainConn = func(ep *tcp.Endpoint) bool { return serve(Peer{EP: ep}) }
}

// Dial opens one client connection to the server's first interface; the
// SYN leaves immediately. opts carries the caller's stack config (its
// TCP half configures single-path dials) and MPTCP knobs, and in
// LocalAddrs the client's WiFi then cellular address, usually from
// Client.Addrs. The scheduler decides the B bit: under "backup" the
// cellular subflow joins as a backup, under every other scheduler
// neither does.
func (w *World) Dial(c *Client, t Transport, opts mptcp.DialOpts, rng *sim.RNG) Peer {
	if t != MPTCP {
		ep := tcp.NewEndpoint(c.Host, w.Net, opts.LocalAddrs[t], ServerAddr, opts.Config.TCP, rng)
		ep.Connect()
		return Peer{EP: ep}
	}
	opts.Labels = pathLabels
	if opts.Config.Scheduler == "backup" {
		opts.Backup = backupCell
	}
	opts.ServerAddr = ServerAddr
	return Peer{Conn: mptcp.Dial(w.Net, c.Host, opts, rng)}
}

// pathLabels names the subflows of every dial, in LocalAddrs order;
// backupCell is the MP_JOIN B bit per address the "backup" scheduler
// dials with: WiFi active, cellular in reserve.
var (
	pathLabels = []string{"wifi", "cell"}
	backupCell = []bool{false, true}
)

// Live enumerates a run's MPTCP connections — the client, its side of
// the connection, and the server's (nil until accepted) — for the hooks
// that act on all of them. The order must be deterministic: withdrawal
// order decides reinjection order, floating-point rate sums are
// order-sensitive, and results must stay a pure function of the seed.
type Live func(yield func(cl *Client, client, server *mptcp.Conn))

// Handover returns chaos.Target's address-level hooks. withdraw pulls
// every live client address on the path out of its connection
// (REMOVE_ADDR, subflow teardown, reinjection on survivors) — the
// "walked away from the AP" half of a handover. restore rejoins through
// the path on a fresh port wherever the connection has no live subflow
// there. Single-path TCP has no address agility; storms shake it only
// through what the links do.
func (w *World) Handover(live Live) (withdraw, restore func(chaos.Path)) {
	withdraw = func(p chaos.Path) {
		live(func(_ *Client, c, _ *mptcp.Conn) {
			seen := map[seg.Addr]bool{}
			for _, sf := range c.Subflows() {
				local := sf.EP.Local
				if seen[local] || !p.Covers(w.IsCell(local)) || sf.EP.State() == tcp.StateClosed {
					continue
				}
				seen[local] = true
				c.RemoveLocalAddr(local)
			}
		})
	}
	restore = func(p chaos.Path) {
		live(func(cl *Client, c, _ *mptcp.Conn) {
			if !c.Established() {
				return
			}
			if p.Covers(false) && !w.hasLive(c, false) {
				wifi, _ := cl.Addrs()
				c.RejoinLocalAddr(wifi)
			}
			if p.Covers(true) && !w.hasLive(c, true) {
				_, cell := cl.Addrs()
				c.RejoinLocalAddr(cell)
			}
		})
	}
	return withdraw, restore
}

// hasLive reports whether the connection still has a subflow on the
// access network that is not closed. A join still handshaking counts:
// under storms whose cycle is shorter than a join handshake (or that
// overlap), an "established" test would stack a duplicate join behind
// the pending one on every Restore.
func (w *World) hasLive(c *mptcp.Conn, cell bool) bool {
	for _, sf := range c.Subflows() {
		if w.IsCell(sf.EP.Local) == cell && sf.EP.State() != tcp.StateClosed {
			return true
		}
	}
	return false
}

// pathRates sums the instantaneous per-subflow delivery rates on each
// access network, from the server-side (sender) RateEstimators — the
// telemetry the chaos monitor samples per tick.
func (w *World) pathRates(live Live) (wifi, cell float64) {
	live(func(_ *Client, _, server *mptcp.Conn) {
		if server == nil {
			return
		}
		for _, sf := range server.Subflows() {
			if w.IsCell(sf.EP.Remote) {
				cell += sf.DeliveryRate()
			} else {
				wifi += sf.DeliveryRate()
			}
		}
	})
	return wifi, cell
}

// ArmChaos installs the run's harness-side machinery: the watchdog
// (wall-clock deadline, 0 = none, plus always-on livelock detection)
// and, for a non-empty schedule, the fault events on the access links,
// scored by the returned resilience monitor (nil for an empty
// schedule). A non-nil live adds the address-level handover hooks and
// per-path delivery telemetry over its connections; a single-path run
// passes nil and storms shake it only through the links.
func (w *World) ArmChaos(sched chaos.Schedule, deadline time.Duration, live Live) *chaos.Monitor {
	var mon *chaos.Monitor
	if !sched.Empty() {
		mon = chaos.NewMonitor(w.Sim, sched)
		tgt := chaos.Target{
			WiFi: []*netem.Link{w.WiFiUp, w.WiFiDown},
			Cell: []*netem.Link{w.CellUp, w.CellDown},
		}
		if live != nil {
			tgt.Withdraw, tgt.Restore = w.Handover(live)
			mon.PathRates = func() (wifi, cell float64) { return w.pathRates(live) }
		}
		sched.Apply(w.Sim, tgt)
	}
	chaos.ArmWatchdog(w.Sim, deadline)
	return mon
}

// FailReason is the first line of the watchdog's abort error, or ""
// for a run that was not killed. One line only: failure reasons land in
// deterministic artifacts.
func (w *World) FailReason() string {
	err := w.Sim.AbortErr()
	if err == nil {
		return ""
	}
	reason, _, _ := strings.Cut(err.Error(), "\n")
	return reason
}
