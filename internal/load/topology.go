// Package load is the fleet workload engine: it drives hundreds to
// thousands of concurrent TCP and MPTCP flows through ONE deterministic
// simulation of the paper's access networks, scaled out sideways — N
// clients sharing a single WiFi AP and a single cellular sector, the
// "coffee shop at rush hour" the paper's one-wget-at-a-time methodology
// cannot reach. The paper's most interesting mechanisms (lowest-RTT
// scheduling, coupled congestion control, bufferbloat) only bite under
// exactly this contention, and the ROADMAP's "heavy traffic from
// millions of users" scales through here: every flow the engine opens
// runs the real tcp/mptcp stacks over the real netem links, and every
// metric streams through bounded-memory estimators (internal/stats
// LogHist/P2/Acc) so a million flows cost the same stats memory as
// ten.
package load

import (
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// fleetPlan is the fleet's address plan: client i gets 10.x.y.2 on WiFi
// and 100.(64+x).y.2 (CGNAT range) on cellular; a client's k-th flow
// binds ports 40000+2k and 40001+2k, so it would need ~12k flows in one
// run to wrap into TIME_WAIT reuse.
var fleetPlan = world.Plan{
	ClientIPs: func(i int) (wifi, cell [4]byte) {
		return [4]byte{10, byte(i >> 8), byte(i), 2},
			[4]byte{100, byte(64 + i>>8), byte(i), 2}
	},
	Ports: func(k int) (wifi, cell uint16) {
		p := uint16(40000 + 2*(k%((1<<16-40000)/2)))
		return p, p + 1
	},
	LANQueue: 64 * units.MB,
}

// NewTopology builds the fleet topology on a new World over n, an
// empty (fresh or freshly Reset) network. It is for bench/, which is
// frozen and calls it that way; the engine builds on its arena world
// itself (buildTopology), so the world's client slice and address map
// are reused across runs.
func NewTopology(n *netem.Network, rng *sim.RNG, wifi, cell pathmodel.Profile, clients int) *world.World {
	w := &world.World{Sim: n.Sim(), Net: n}
	buildTopology(w, rng, wifi, cell, clients)
	return w
}

// buildTopology builds the fleet network onto an empty (fresh or
// freshly Reset) world: the WiFi profile becomes the shared AP, the
// cellular profile the shared sector, and world.Build lays the server
// side down behind them; each client's two paths to the server are
// built at its first dial (world.Client), so the cost does not grow
// with clients.
func buildTopology(w *world.World, rng *sim.RNG, wifi, cell pathmodel.Profile, clients int) {
	var a world.Access
	a.WiFiUp, a.WiFiDown, _ = wifi.Links(w.Sim, rng.Child("ap"))
	a.CellUp, a.CellDown, a.CellRadio = cell.Links(w.Sim, rng.Child("cell"))
	// Stable names regardless of profile, so exports and reports can
	// address the bottlenecks uniformly.
	a.WiFiUp.Name, a.WiFiDown.Name = "ap-up", "ap-down"
	a.CellUp.Name, a.CellDown.Name = "cell-up", "cell-down"
	w.Build(rng, a, clients, fleetPlan)
}

// Background configures constant-average-rate cross-traffic injected
// straight through the shared bottlenecks — the other patrons of the
// coffee shop, whose packets occupy queue space and serialization time
// but belong to no measured flow.
type Background struct {
	WiFiDown, WiFiUp units.BitRate
	CellDown, CellUp units.BitRate
}

// Enabled reports whether any background stream has a nonzero rate.
func (b Background) Enabled() bool {
	return b.WiFiDown > 0 || b.WiFiUp > 0 || b.CellDown > 0 || b.CellUp > 0
}

// sink swallows delivered background packets; the route chain releases
// the segments back to the pool after Receive returns.
type sink struct{}

func (sink) Receive(*seg.Segment) {}

// Background packets carry a full MSS payload; with the 40-byte
// IPv4+TCP headers the wire size is 1500 bytes.
const (
	bgPayloadBytes = 1460
	bgPacketBytes  = bgPayloadBytes + 40
)

// startBackground arms the configured cross-traffic streams until
// stop. Each stream is a Poisson packet process with mean rate equal
// to the configured bit rate, drawn from its own RNG child so enabling
// one stream never perturbs another (or the flows).
func startBackground(w *world.World, bg Background, rng *sim.RNG, stop sim.Time) {
	if !bg.Enabled() {
		return
	}
	// Downstream sources sit behind the server LAN; upstream sources
	// behind the clients. One source/sink host pair serves all four
	// streams with distinct addresses per direction.
	srcHost := w.Net.NewHost("bg-client")
	dstHost := w.Net.NewHost("bg-sink")

	arm := func(name string, rate units.BitRate, src, dst seg.Addr, hop *netem.Link) {
		if rate <= 0 {
			return
		}
		w.Net.AddRoute(src.IP, dst.IP, dstHost, hop)
		dstHost.Bind(dst, src, sink{})
		r := rng.Child("bg/" + name)
		// Mean inter-packet gap for the target average rate.
		mean := float64(rate.TransmitTime(bgPacketBytes))
		var tick func()
		tick = func() {
			if w.Sim.Now() >= stop {
				return
			}
			s := w.Net.NewSegment()
			s.Src, s.Dst = src, dst
			s.Flags = seg.ACK
			s.PayloadLen = bgPayloadBytes
			srcHost.Send(s)
			w.Sim.At(w.Sim.Now()+sim.Time(r.Exponential(mean)), "bg:"+name, tick)
		}
		w.Sim.At(sim.Time(r.Exponential(mean)), "bg:"+name, tick)
	}

	arm("wifi-down", bg.WiFiDown,
		seg.MakeAddr("192.168.1.200", 9), seg.MakeAddr("10.255.255.1", 9), w.WiFiDown)
	arm("wifi-up", bg.WiFiUp,
		seg.MakeAddr("10.255.255.2", 9), seg.MakeAddr("192.168.1.201", 9), w.WiFiUp)
	arm("cell-down", bg.CellDown,
		seg.MakeAddr("192.168.1.202", 9), seg.MakeAddr("100.127.255.1", 9), w.CellDown)
	arm("cell-up", bg.CellUp,
		seg.MakeAddr("100.127.255.2", 9), seg.MakeAddr("192.168.1.203", 9), w.CellUp)
}
