// Handover demonstrates the paper's §6 mobility argument: when the
// user walks out of WiFi range mid-download, single-path TCP stalls
// (and would eventually reset), while MPTCP shifts seamlessly to the
// cellular subflow, reinjects the bytes stranded on the dead path, and
// shifts back when WiFi returns — no data or connection lost.
//
// The example also shows the backup-mode policy (Paasch et al.,
// CellNet 2012, cited in §7): the cellular path is kept silent until
// the WiFi path actually fails.
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

const (
	downloadSize = 24 * units.MB
	outageStart  = 2 * sim.Second
	outageEnd    = 8 * sim.Second
)

func main() {
	fmt.Printf("24MB download; WiFi dies at t=%v, returns at t=%v\n\n", outageStart, outageEnd)
	fmt.Printf("%-22s %-10s %-12s %s\n", "mode", "done", "at outage+5s", "notes")
	run("SP-WiFi", nil)
	run("MP-2 (lowest-rtt)", nil)
	run("MP-2 (backup mode)", []bool{false, true})
	fmt.Println()
	fmt.Println("Single-path TCP strands the download behind exponential RTO backoff.")
	fmt.Println("Full MPTCP barely notices the outage. Backup mode survives it but")
	fmt.Println("switches back to the recovered (cold, cwnd=1) WiFi path as soon as it")
	fmt.Println("answers one probe, silencing cellular — the slow WiFi re-use problem")
	fmt.Println("the paper points out is unexplored in Paasch et al. (§7).")
}

func run(mode string, backup []bool) {
	tb := experiment.NewTestbed(experiment.TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: false, WarmRadio: true, Seed: 11,
	})
	cfg := mptcp.DefaultConfig()
	locals := []seg.Addr{tb.WiFiAddr, tb.CellAddr}
	if mode == "SP-WiFi" {
		locals = locals[:1]
	}
	if backup != nil {
		cfg.Scheduler = "backup"
	}

	fs := &web.FileServer{SizeFor: func(int) int { return downloadSize }}
	var serverConn *mptcp.Conn
	tb.Serve(cfg, tb.RNG.Child("srv"), func(p world.Peer) *web.FileServer {
		serverConn = p.Conn
		return fs
	})
	client := tb.Dial(tb.Clients[0], world.MPTCP, mptcp.DialOpts{
		LocalAddrs: locals,
		Backup:     backup,
		Config:     cfg,
	}, tb.RNG.Child("cli"))
	g := web.NewGetter(client.Stream())

	var done sim.Time = -1
	g.Get(downloadSize, func() { done = tb.Sim.Now() })

	tb.Sim.At(outageStart, "wifi-down", func() { tb.SetWiFiDown(true) })
	tb.Sim.At(outageEnd, "wifi-up", func() { tb.SetWiFiDown(false) })

	tb.Sim.RunUntil(outageStart + 5*sim.Second)
	during := g.BytesReceived
	tb.Sim.RunUntil(5 * sim.Minute)

	status := "unfinished at 5min"
	if done >= 0 {
		status = fmt.Sprintf("%.1fs", done.Seconds())
	}
	notes := ""
	if serverConn != nil && serverConn.Reinjections > 0 {
		notes = fmt.Sprintf("%d stranded chunks reinjected", serverConn.Reinjections)
	}
	fmt.Printf("%-22s %-10s %-12s %s\n", mode, status,
		units.ByteCount(during).String(), notes)
}
