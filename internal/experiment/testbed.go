// Package experiment reproduces the paper's measurement campaigns: it
// materializes the Figure 1 testbed on the simulator, runs single-path
// and multipath downloads across carriers, file sizes, congestion
// controllers and SYN modes, and aggregates the metrics behind every
// table and figure in the evaluation (§4, §5).
package experiment

import (
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/world"
)

// TestbedConfig selects the networks for one measurement run.
type TestbedConfig struct {
	WiFi pathmodel.Profile
	Cell pathmodel.Profile
	// ServerSecondIface enables the server's second interface
	// (Figure 1's dashed paths, used by 4-path runs).
	ServerSecondIface bool
	// SampleProfiles applies the profiles' per-run Spread, modeling
	// the paper's location-to-location variation.
	SampleProfiles bool
	// WarmRadio pre-warms the cellular radio, as the paper's two ICMP
	// pings before each measurement do (§3.2). Default true via
	// NewTestbed; set false to measure promotion-delay impact.
	WarmRadio bool
	Seed      int64
}

// Testbed is the paper's testbed: a one-client world.World (whose
// simulator, network, server host and access links it promotes) plus
// the run's root RNG and the client's primary addresses. Each
// measurement run gets a fresh testbed or a Reset one — same simulator
// and warm pools, rebuilt topology and endpoints, observationally
// identical: the paper's server also disables metric caching between
// connections (§3.1).
type Testbed struct {
	*world.World
	Client *netem.Host
	RNG    *sim.RNG

	WiFiAddr, CellAddr seg.Addr

	cfg TestbedConfig

	// The run's per-packet collectors append here; Run hands its result
	// exactly sized copies, so a worker's buffers grow to its largest
	// run once instead of from nil every run.
	wifiRTTms, cellRTTms, ofoMs []float64
}

// NewTestbed builds the Figure 1 topology on a fresh world.
func NewTestbed(cfg TestbedConfig) *Testbed {
	tb := &Testbed{World: world.New()}
	tb.build(cfg)
	return tb
}

// Reset re-materializes the testbed for a new measurement run on the
// same world (see world.World.Reset): a run on a reused testbed is
// byte-identical to the same run on a fresh one — the arena-reuse path
// sweep workers use to stop rebuilding the world once per job.
func (tb *Testbed) Reset(cfg TestbedConfig) {
	tb.World.Reset()
	tb.build(cfg)
}

// scrub empties the testbed for an idle list: its world Reset, and
// nothing of the last run — hosts, RNG, configuration — left
// reachable. The next use is a Reset.
func (tb *Testbed) scrub() {
	tb.World.Reset()
	tb.Client, tb.RNG, tb.cfg = nil, nil, TestbedConfig{}
}

// build materializes the topology onto the testbed's world, which must
// be fresh or freshly Reset. The root RNG's draw order — [wifi-sample,
// cell-sample,] wifi, cell, then Build's LAN links — is pinned by the
// golden fixtures.
func (tb *Testbed) build(cfg TestbedConfig) {
	rng := sim.NewRNG(cfg.Seed)
	tb.RNG = rng
	tb.cfg = cfg

	wifi, cell := cfg.WiFi, cfg.Cell
	if cfg.SampleProfiles {
		wifi = wifi.Sample(rng.Child("wifi-sample"))
		cell = cell.Sample(rng.Child("cell-sample"))
	}
	var a world.Access
	a.WiFiUp, a.WiFiDown, _ = wifi.Links(tb.Sim, rng.Child("wifi"))
	a.CellUp, a.CellDown, a.CellRadio = cell.Links(tb.Sim, rng.Child("cell"))
	tb.Build(rng, a, 1, world.Paper(cfg.ServerSecondIface))

	cl := tb.World.Client(0)
	tb.Client = cl.Host
	tb.WiFiAddr, tb.CellAddr = cl.Addrs()

	if cfg.WarmRadio && tb.CellRadio != nil {
		tb.CellRadio.Warm()
	}
}
