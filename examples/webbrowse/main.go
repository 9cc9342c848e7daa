// Webbrowse models the paper's motivating workload (§1): a page load
// of many small-to-medium Web objects fetched sequentially over one
// connection. It compares single-path TCP, stock 2-path MPTCP, and
// MPTCP with the simultaneous-SYN patch (§4.1.2), which matters most
// for exactly this kind of short, RTT-bound transfer.
package main

import (
	"fmt"

	"mptcplab/internal/experiment"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// A typical page: one HTML document, a few stylesheets/scripts, images.
var pageObjects = []int{
	64 * units.KB,                // html
	16 * units.KB, 24 * units.KB, // css, js
	8 * units.KB, 128 * units.KB, 96 * units.KB, 256 * units.KB, // images
	512 * units.KB, // hero image
}

func main() {
	total := 0
	for _, o := range pageObjects {
		total += o
	}
	fmt.Printf("web page load: %d objects, %v total, home WiFi + AT&T LTE\n\n",
		len(pageObjects), units.ByteCount(total))

	for _, mode := range []string{"SP-WiFi", "MP-2 (delayed SYN)", "MP-2 (simultaneous SYN)"} {
		var times []float64
		for seed := int64(1); seed <= 5; seed++ {
			times = append(times, loadPage(mode, seed).Seconds())
		}
		mean := 0.0
		for _, t := range times {
			mean += t
		}
		mean /= float64(len(times))
		fmt.Printf("%-26s page load %.3fs (mean of %d runs)\n", mode, mean, len(times))
	}
}

func loadPage(mode string, seed int64) sim.Time {
	tb := experiment.NewTestbed(experiment.TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: true, WarmRadio: true, Seed: seed,
	})
	cfg := mptcp.DefaultConfig()
	cfg.SimultaneousSYN = mode == "MP-2 (simultaneous SYN)"

	idx := 0
	fs := &web.FileServer{CloseAfter: -1, SizeFor: func(i int) int {
		if i < len(pageObjects) {
			return pageObjects[i]
		}
		return -1
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

	g := web.NewGetter(st)
	start := tb.Sim.Now()
	var done sim.Time
	var next func()
	next = func() {
		if idx >= len(pageObjects) {
			done = tb.Sim.Now() - start
			tb.Sim.Stop()
			return
		}
		size := pageObjects[idx]
		idx++
		g.Get(size, next)
	}
	next()
	tb.Sim.RunUntil(5 * sim.Minute)
	return done
}
