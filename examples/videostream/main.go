// Videostream reproduces the paper's §6 discussion and Table 7: modern
// video services (Netflix, YouTube) fetch a large prefetch burst and
// then periodic smaller blocks over a persistent connection. The
// example replays both measured device profiles over 2-path MPTCP and
// over single-path WiFi, reporting per-block fetch latency — the
// quantity that decides whether playback stalls.
package main

import (
	"fmt"

	"mptcplab/internal/experiment"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/stats"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// deviceProfile mirrors Table 7's measured streaming workloads.
type deviceProfile struct {
	Name     string
	Prefetch units.ByteCount
	Block    units.ByteCount
	Period   sim.Time
	Blocks   int
}

var profiles = []deviceProfile{
	{Name: "Netflix/Android", Prefetch: 40 * units.MB, Block: 5 * units.MB, Period: 72 * sim.Second, Blocks: 6},
	{Name: "Netflix/iPad", Prefetch: 15 * units.MB, Block: 1843 * units.KB, Period: 10 * sim.Second, Blocks: 12},
	{Name: "YouTube", Prefetch: 12 * units.MB, Block: 512 * units.KB, Period: 5 * sim.Second, Blocks: 20},
}

func main() {
	fmt.Println("video streaming over MPTCP (paper §6, Table 7 workloads)")
	for _, p := range profiles {
		fmt.Printf("\n== %s: prefetch %v, then %d blocks of %v every %v ==\n",
			p.Name, p.Prefetch, p.Blocks, p.Block, p.Period)
		for _, mode := range []string{"SP-WiFi", "MP-2"} {
			stream(p, mode)
		}
	}
}

func stream(p deviceProfile, mode string) {
	tb := experiment.NewTestbed(experiment.TestbedConfig{
		WiFi:           pathmodel.ComcastHome(),
		Cell:           pathmodel.ATT(),
		SampleProfiles: true,
		WarmRadio:      true,
		Seed:           7,
	})
	cfg := mptcp.DefaultConfig()

	// Persistent connection: the server keeps serving GETs.
	fs := &web.FileServer{CloseAfter: -1, SizeFor: func(i int) int {
		if i == 0 {
			return int(p.Prefetch)
		}
		return int(p.Block)
	}}

	stack := world.MPTCP
	if mode == "SP-WiFi" {
		stack = world.TCPWiFi
	}
	tb.Serve(cfg, tb.RNG.Child("srv"), func(world.Peer) *web.FileServer { return fs })
	st := tb.Dial(tb.Clients[0], stack, mptcp.DialOpts{
		LocalAddrs: []seg.Addr{tb.WiFiAddr, tb.CellAddr},
		Config:     cfg,
	}, tb.RNG.Child("cli")).Stream()

	getter := web.NewGetter(st)
	blockTimes := stats.New()
	var prefetchTime sim.Time

	// Prefetch, then schedule periodic block fetches.
	start := tb.Sim.Now()
	var fetchBlock func(i int)
	fetchBlock = func(i int) {
		issued := tb.Sim.Now()
		getter.Get(int(p.Block), func() {
			blockTimes.Add((tb.Sim.Now() - issued).Seconds())
			if i+1 < p.Blocks {
				// Next block at the next period boundary.
				wait := p.Period - (tb.Sim.Now() - issued)
				if wait < 0 {
					wait = 0
				}
				tb.Sim.After(wait, "video.block", func() { fetchBlock(i + 1) })
			} else {
				tb.Sim.Stop()
			}
		})
	}
	getter.Get(int(p.Prefetch), func() {
		prefetchTime = tb.Sim.Now() - start
		fetchBlock(0)
	})

	tb.Sim.RunUntil(60 * sim.Minute)

	if blockTimes.N() == 0 {
		fmt.Printf("  %-8s did not complete\n", mode)
		return
	}
	budget := p.Period.Seconds()
	stalls := blockTimes.FractionAbove(budget)
	fmt.Printf("  %-8s prefetch %6.1fs | block fetch mean %5.2fs p95 %5.2fs max %5.2fs | blocks over period budget: %.0f%%\n",
		mode, prefetchTime.Seconds(), blockTimes.Mean(),
		blockTimes.Quantile(0.95), blockTimes.Max(), stalls*100)
}
