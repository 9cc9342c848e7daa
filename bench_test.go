// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls
// out and micro-benchmarks of the core data structures.
//
// Each experiment benchmark runs a scaled-down campaign (fewer
// repetitions than the paper's 20-per-period) and reports the series
// the corresponding figure plots via b.ReportMetric, so
//
//	go test -bench=Fig9 -benchtime=1x
//
// prints the regenerated rows. cmd/paperbench renders the same
// campaigns as full text tables.
package mptcplab_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mptcplab/internal/experiment"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/pcap"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/stats"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

const benchReps = 3

// Workers: 0 fans each campaign out to all CPUs; the runner guarantees
// aggregates are byte-identical to a serial run, so reported metrics
// are unaffected.
var benchOpts = experiment.CampaignOpts{Reps: benchReps, Seed: 1, SampleProfiles: true, Workers: 0}

// Campaigns are deterministic; share them across the benchmarks that
// read different projections of the same matrix (e.g. Fig 2/3 and
// Table 2 all come from the baseline campaign).
var (
	campaignMu    sync.Mutex
	campaignCache = map[string]*experiment.Matrix{}
)

func campaign(name string, run func() *experiment.Matrix) *experiment.Matrix {
	campaignMu.Lock()
	defer campaignMu.Unlock()
	if m, ok := campaignCache[name]; ok {
		return m
	}
	m := run()
	campaignCache[name] = m
	return m
}

// reportTimes emits each row's median download time for every size.
func reportTimes(b *testing.B, m *experiment.Matrix) {
	b.Helper()
	for _, row := range m.Rows {
		for i, size := range m.Sizes {
			c := row.Cells[i]
			b.ReportMetric(c.Times.Median(), fmt.Sprintf("s_median/%s/%v", slug(row.Label), size))
		}
	}
}

// reportShare emits each MPTCP row's mean cellular share.
func reportShare(b *testing.B, m *experiment.Matrix) {
	b.Helper()
	for _, row := range m.Rows {
		for i, size := range m.Sizes {
			c := row.Cells[i]
			if c.Share.N() > 0 && c.Config.Transport != experiment.SPWiFi && c.Config.Transport != experiment.SPCell {
				b.ReportMetric(c.Share.Mean(), fmt.Sprintf("cellshare/%s/%v", slug(row.Label), size))
			}
		}
	}
}

func slug(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			out = append(out, r)
		case r == ' ':
			out = append(out, '_')
		}
	}
	return string(out)
}

// --- Figures 2 & 3, Table 2: baseline across carriers ---

func BenchmarkFig2BaselineDownloadTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("baseline", func() *experiment.Matrix { return experiment.Baseline(benchOpts) })
		reportTimes(b, m)
	}
}

func BenchmarkFig3BaselineCellShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("baseline", func() *experiment.Matrix { return experiment.Baseline(benchOpts) })
		reportShare(b, m)
	}
}

func BenchmarkTable2BaselinePathCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("baseline", func() *experiment.Matrix { return experiment.Baseline(benchOpts) })
		for _, label := range []string{"SP-att", "SP-verizon", "SP-sprint", "SP-WiFi"} {
			row := m.Row(label)
			if row == nil {
				continue
			}
			for j, size := range m.Sizes {
				c := row.Cells[j]
				loss, rtt := c.CellLoss, c.CellRTT
				if label == "SP-WiFi" {
					loss, rtt = c.WiFiLoss, c.WiFiRTT
				}
				b.ReportMetric(loss.Mean(), fmt.Sprintf("losspct/%s/%v", slug(label), size))
				b.ReportMetric(rtt.Mean(), fmt.Sprintf("rtt_ms/%s/%v", slug(label), size))
			}
		}
	}
}

// --- Figures 4 & 5, Table 3: small flows ---

func BenchmarkFig4SmallFlowDownloadTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("small", func() *experiment.Matrix { return experiment.SmallFlows(benchOpts) })
		reportTimes(b, m)
	}
}

func BenchmarkFig5SmallFlowCellShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("small", func() *experiment.Matrix { return experiment.SmallFlows(benchOpts) })
		reportShare(b, m)
	}
}

func BenchmarkTable3SmallFlowPathCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("small", func() *experiment.Matrix { return experiment.SmallFlows(benchOpts) })
		for j, size := range m.Sizes {
			wifi := m.Row("SP-WiFi").Cells[j]
			att := m.Row("SP-ATT").Cells[j]
			b.ReportMetric(wifi.WiFiLoss.Mean(), fmt.Sprintf("losspct/wifi/%v", size))
			b.ReportMetric(wifi.WiFiRTT.Mean(), fmt.Sprintf("rtt_ms/wifi/%v", size))
			b.ReportMetric(att.CellLoss.Mean(), fmt.Sprintf("losspct/att/%v", size))
			b.ReportMetric(att.CellRTT.Mean(), fmt.Sprintf("rtt_ms/att/%v", size))
		}
	}
}

// --- Figures 6 & 7, Table 4: coffee-shop hotspot ---

func BenchmarkFig6CoffeeShopDownloadTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("coffee", func() *experiment.Matrix { return experiment.CoffeeShop(benchOpts) })
		reportTimes(b, m)
	}
}

func BenchmarkFig7CoffeeShopCellShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("coffee", func() *experiment.Matrix { return experiment.CoffeeShop(benchOpts) })
		reportShare(b, m)
	}
}

func BenchmarkTable4CoffeeShopPathCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("coffee", func() *experiment.Matrix { return experiment.CoffeeShop(benchOpts) })
		for j, size := range m.Sizes {
			wifi := m.Row("SP-WiFi").Cells[j]
			b.ReportMetric(wifi.WiFiLoss.Mean(), fmt.Sprintf("losspct/publicwifi/%v", size))
			b.ReportMetric(wifi.WiFiRTT.Mean(), fmt.Sprintf("rtt_ms/publicwifi/%v", size))
		}
	}
}

// --- Figure 8: simultaneous vs delayed SYN ---

func BenchmarkFig8SimultaneousSYN(b *testing.B) {
	opts := benchOpts
	opts.Reps = 8 // the effect is ~10%; needs more samples
	for i := 0; i < b.N; i++ {
		m := campaign("simsyn", func() *experiment.Matrix { return experiment.SimultaneousSYN(opts) })
		reportTimes(b, m)
		// Report the headline: relative improvement at each size.
		for j, size := range m.Sizes {
			d := m.Rows[0].Cells[j].Times.Median()
			s := m.Rows[1].Cells[j].Times.Median()
			if d > 0 {
				b.ReportMetric((d-s)/d*100, fmt.Sprintf("improvement_pct/%v", size))
			}
		}
	}
}

// --- Figures 9 & 10, Table 5: large flows ---

func BenchmarkFig9LargeFlowDownloadTimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("large", func() *experiment.Matrix { return experiment.LargeFlows(benchOpts) })
		reportTimes(b, m)
	}
}

func BenchmarkFig10LargeFlowCellShare(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("large", func() *experiment.Matrix { return experiment.LargeFlows(benchOpts) })
		reportShare(b, m)
	}
}

func BenchmarkTable5LargeFlowPathCharacteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("large", func() *experiment.Matrix { return experiment.LargeFlows(benchOpts) })
		for j, size := range m.Sizes {
			wifi := m.Row("SP-WiFi").Cells[j]
			att := m.Row("SP-ATT").Cells[j]
			b.ReportMetric(wifi.WiFiLoss.Mean(), fmt.Sprintf("losspct/wifi/%v", size))
			b.ReportMetric(att.CellRTT.Mean(), fmt.Sprintf("rtt_ms/att/%v", size))
		}
	}
}

// --- Figure 11: infinite backlog ---

func BenchmarkFig11InfiniteBacklog(b *testing.B) {
	opts := benchOpts
	opts.Reps = 2
	// 128 MB approximates the paper's 512 MB "infinite backlog" at a
	// quarter of the simulation cost; slow-start effects are equally
	// negligible at this scale.
	size := units.ByteCount(128 * units.MB)
	for i := 0; i < b.N; i++ {
		m := campaign("backlog", func() *experiment.Matrix { return experiment.Backlog(size, opts) })
		reportTimes(b, m)
	}
}

// --- Figures 12 & 13, Table 6: latency distributions ---

func BenchmarkFig12RTTCCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("latency", func() *experiment.Matrix { return experiment.LatencyDistribution(benchOpts) })
		for _, row := range m.Rows {
			for j, size := range m.Sizes {
				c := row.Cells[j]
				for _, p := range []float64{0.5, 0.9, 0.99} {
					b.ReportMetric(c.CellRTT.Quantile(p), fmt.Sprintf("rtt_ms_p%.0f/%s/%v", p*100, slug(row.Label), size))
				}
			}
		}
	}
}

func BenchmarkFig13OFOCCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("latency", func() *experiment.Matrix { return experiment.LatencyDistribution(benchOpts) })
		for _, row := range m.Rows {
			for j, size := range m.Sizes {
				c := row.Cells[j]
				b.ReportMetric(1-c.OFO.FractionAbove(0), fmt.Sprintf("inorder_frac/%s/%v", slug(row.Label), size))
				b.ReportMetric(c.OFO.FractionAbove(150), fmt.Sprintf("ofo_gt150ms_frac/%s/%v", slug(row.Label), size))
			}
		}
	}
}

func BenchmarkTable6MPTCPLatencyStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := campaign("latency", func() *experiment.Matrix { return experiment.LatencyDistribution(benchOpts) })
		for _, row := range m.Rows {
			for j, size := range m.Sizes {
				c := row.Cells[j]
				b.ReportMetric(c.CellRTT.Mean(), fmt.Sprintf("rtt_ms/%s/%v", slug(row.Label), size))
				b.ReportMetric(c.OFO.Mean(), fmt.Sprintf("ofo_ms/%s/%v", slug(row.Label), size))
			}
		}
	}
}

// --- Table 7: video streaming workloads ---

func BenchmarkTable7VideoStreaming(b *testing.B) {
	type profile struct {
		name     string
		prefetch units.ByteCount
		block    units.ByteCount
		period   sim.Time
		blocks   int
	}
	profiles := []profile{
		{"netflix-android", 40 * units.MB, 5 * units.MB, 72 * sim.Second, 4},
		{"netflix-ipad", 15 * units.MB, 1843 * units.KB, 10 * sim.Second, 8},
	}
	for i := 0; i < b.N; i++ {
		for _, p := range profiles {
			tb := experiment.NewTestbed(experiment.TestbedConfig{
				WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
				SampleProfiles: true, WarmRadio: true, Seed: int64(i) + 9,
			})
			cfg := mptcp.DefaultConfig()
			fs := &web.FileServer{CloseAfter: -1, SizeFor: func(r int) int {
				if r == 0 {
					return int(p.prefetch)
				}
				return int(p.block)
			}}
			tb.Serve(cfg, tb.RNG.Child("srv"), func(world.Peer) *web.FileServer { return fs })
			client := tb.Dial(tb.Clients[0], world.MPTCP, mptcp.DialOpts{
				LocalAddrs: []seg.Addr{tb.WiFiAddr, tb.CellAddr},
				Config:     cfg,
			}, tb.RNG.Child("cli"))
			g := web.NewGetter(client.Stream())

			blockTimes := stats.New()
			var prefetchSec float64
			start := tb.Sim.Now()
			var fetch func(k int)
			fetch = func(k int) {
				issued := tb.Sim.Now()
				g.Get(int(p.block), func() {
					blockTimes.Add((tb.Sim.Now() - issued).Seconds())
					if k+1 < p.blocks {
						wait := p.period - (tb.Sim.Now() - issued)
						if wait < 0 {
							wait = 0
						}
						tb.Sim.After(wait, "block", func() { fetch(k + 1) })
					} else {
						tb.Sim.Stop()
					}
				})
			}
			g.Get(int(p.prefetch), func() {
				prefetchSec = (tb.Sim.Now() - start).Seconds()
				fetch(0)
			})
			tb.Sim.RunUntil(30 * sim.Minute)

			b.ReportMetric(prefetchSec, "prefetch_s/"+p.name)
			b.ReportMetric(blockTimes.Mean(), "block_s/"+p.name)
			b.ReportMetric(blockTimes.FractionAbove(p.period.Seconds()), "stall_frac/"+p.name)
		}
	}
}

// --- Ablations of DESIGN.md's design choices ---

// Scheduler: lowest-RTT (v0.86 default) vs round-robin. Round-robin
// ignores path quality and should inflate out-of-order delay.
func BenchmarkAblationScheduler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, sched := range []string{"lowest-rtt", "round-robin"} {
			ofo := stats.New()
			times := stats.New()
			for rep := 0; rep < benchReps; rep++ {
				tb := experiment.NewTestbed(experiment.TestbedConfig{
					WiFi: pathmodel.ComcastHome(), Cell: pathmodel.Sprint(),
					SampleProfiles: true, WarmRadio: true, Seed: int64(rep)*31 + 5,
				})
				res := tb.Run(experiment.RunConfig{Transport: experiment.MP2, Scheduler: sched, Size: 4 * units.MB})
				if res.Completed {
					times.Add(res.DownloadTime.Seconds())
					ofo.AddAll(res.OFOms)
				}
			}
			b.ReportMetric(times.Median(), "s_median/"+sched)
			b.ReportMetric(ofo.Mean(), "ofo_ms/"+sched)
		}
	}
}

// ssthresh: the paper's 64 KB initial threshold vs the Linux default
// of infinity, which lets the loss-free cellular path blow up its
// window and its RTT (§3.1).
func BenchmarkAblationSsthresh(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, inf := range []bool{false, true} {
			rtt := stats.New()
			for rep := 0; rep < benchReps; rep++ {
				tb := experiment.NewTestbed(experiment.TestbedConfig{
					WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
					SampleProfiles: true, WarmRadio: true, Seed: int64(rep)*13 + 7,
				})
				res := tb.Run(experiment.RunConfig{Transport: experiment.SPCell, Size: 8 * units.MB, InfiniteSSThresh: inf})
				if res.Completed {
					rtt.AddAll(res.CellRTTms)
				}
			}
			name := "64KB"
			if inf {
				name = "infinite"
			}
			b.ReportMetric(rtt.Quantile(0.95), "cellrtt_p95_ms/ssthresh_"+name)
		}
	}
}

// Receive buffer: the paper's 8 MB vs an under-provisioned buffer that
// stalls the fast path while reordering drains (§3.1).
func BenchmarkAblationReceiveBuffer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, buf := range []units.ByteCount{8 * units.MB, 64 * units.KB} {
			times := stats.New()
			for rep := 0; rep < benchReps; rep++ {
				tb := experiment.NewTestbed(experiment.TestbedConfig{
					WiFi: pathmodel.ComcastHome(), Cell: pathmodel.Sprint(),
					SampleProfiles: true, WarmRadio: true, Seed: int64(rep)*11 + 1,
				})
				res := tb.Run(experiment.RunConfig{Transport: experiment.MP2, Size: 4 * units.MB, RcvBuf: buf})
				if res.Completed {
					times.Add(res.DownloadTime.Seconds())
				}
			}
			b.ReportMetric(times.Median(), fmt.Sprintf("s_median/rcvbuf_%v", buf))
		}
	}
}

// Radio state: the paper pre-warms the antenna with pings; a cold
// radio adds the promotion delay to the join.
func BenchmarkAblationColdRadio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, warm := range []bool{true, false} {
			times := stats.New()
			for rep := 0; rep < benchReps; rep++ {
				tb := experiment.NewTestbed(experiment.TestbedConfig{
					WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
					SampleProfiles: true, WarmRadio: warm, Seed: int64(rep)*7 + 2,
				})
				res := tb.Run(experiment.RunConfig{Transport: experiment.SPCell, Size: 64 * units.KB})
				if res.Completed {
					times.Add(res.DownloadTime.Seconds())
				}
			}
			name := "warm"
			if !warm {
				name = "cold"
			}
			b.ReportMetric(times.Median(), "s_median/radio_"+name)
		}
	}
}

// --- Campaign runner worker scaling ---

// BenchmarkCampaignWorkerScaling measures the wall-clock effect of the
// parallel campaign runner on a fixed campaign: the serial path versus
// the all-CPU pool. The resulting matrices are byte-identical (see
// TestMatrixParallelDeterminism); only elapsed time differs.
func BenchmarkCampaignWorkerScaling(b *testing.B) {
	counts := []int{1, runtime.GOMAXPROCS(0)}
	if counts[1] == 1 {
		counts[1] = 2 // still exercise the pool path on single-CPU hosts
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers_%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := experiment.CampaignOpts{Reps: 2, Seed: 1, SampleProfiles: true, Workers: workers}
				m := experiment.SimultaneousSYN(opts)
				b.ReportMetric(m.BusyTime.Seconds()/m.WallTime.Seconds(), "speedup")
			}
		})
	}
}

// --- Micro-benchmarks of the core machinery ---

func BenchmarkSimEventLoop(b *testing.B) {
	s := sim.New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(sim.Microsecond, "e", func() {})
		s.Step()
	}
}

// BenchmarkSegEncodeDecode is the capture round trip as the pipeline
// runs it: encode into a reused scratch (what a pcap tap does per
// frame), decode into one fresh segment (what the trace reader does).
func BenchmarkSegEncodeDecode(b *testing.B) {
	s := &seg.Segment{
		Src: seg.MakeAddr("10.0.0.2", 40000), Dst: seg.MakeAddr("192.168.1.1", 8080),
		Seq: 12345, Ack: 67890, Flags: seg.ACK, Window: 31000, PayloadLen: 1460,
	}
	s.AddDSS(seg.DSSOption{HasMap: true, HasAck: true, DataSeq: 1 << 33, Length: 1460})
	var wire []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wire = seg.AppendEncode(wire[:0], s)
		if _, err := seg.Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReorderBufferInorder(b *testing.B) {
	rb := mptcp.NewReorderBuffer(0)
	b.ReportAllocs()
	var at uint64
	for i := 0; i < b.N; i++ {
		rb.Insert(sim.Time(i), at, at+1460, 0)
		at += 1460
	}
}

func BenchmarkReorderBufferInterleaved(b *testing.B) {
	rb := mptcp.NewReorderBuffer(0)
	b.ReportAllocs()
	var at uint64
	for i := 0; i < b.N; i++ {
		// Alternate: skip one segment ahead, then heal the hole.
		rb.Insert(sim.Time(i), at+1460, at+2920, 1)
		rb.Insert(sim.Time(i), at, at+1460, 0)
		at += 2920
	}
}

func BenchmarkPcapWrite(b *testing.B) {
	s := &seg.Segment{
		Src: seg.MakeAddr("10.0.0.2", 40000), Dst: seg.MakeAddr("192.168.1.1", 8080),
		Flags: seg.ACK, PayloadLen: 1460,
	}
	wire := seg.Encode(s)
	w, err := pcap.NewWriter(discard{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(wire)))
	for i := 0; i < b.N; i++ {
		_ = w.WritePacket(pcap.Packet{TS: int64(i), Data: wire})
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkSingleDownload measures simulator throughput end to end:
// one complete 4 MB 2-path MPTCP download per iteration.
func BenchmarkSingleDownload4MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := experiment.NewTestbed(experiment.TestbedConfig{
			WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
			SampleProfiles: true, WarmRadio: true, Seed: int64(i),
		})
		res := tb.Run(experiment.RunConfig{Transport: experiment.MP2, Size: 4 * units.MB})
		if !res.Completed {
			b.Fatal("download failed")
		}
	}
}

// BenchmarkTCPThroughput exercises the plain TCP fast path.
func BenchmarkTCPSingle4MB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := experiment.NewTestbed(experiment.TestbedConfig{
			WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
			SampleProfiles: true, WarmRadio: true, Seed: int64(i),
		})
		res := tb.Run(experiment.RunConfig{Transport: experiment.SPWiFi, Size: 4 * units.MB})
		if !res.Completed {
			b.Fatal("download failed")
		}
	}
}

// BenchmarkTCPBloat8MB is the regime of Fig 11-13 on one plain TCP
// connection: 8 MB through a 9 Mb/s, 20 ms link with a 768 KB drop-tail
// queue and the initial ssthresh lifted, so slow start fills the queue
// and the sender works with hundreds of segments in flight and a SACK
// scoreboard to match. It is the bench ledger's tcp.bloat rung as a Go
// benchmark: per-ACK work that grows with the flight shows up here
// long before it shows in the 4 MB downloads.
func BenchmarkTCPBloat8MB(b *testing.B) {
	const size = 8 * units.MB
	cfg := tcp.DefaultConfig()
	cfg.SSThresh = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New()
		network := netem.NewNetwork(s)
		rng := sim.NewRNG(42)
		client, server := network.NewHost("client"), network.NewHost("server")
		link := func(name string) []*netem.Link {
			l := netem.NewLink(s, rng, name)
			l.Rate, l.PropDelay, l.QueueLimit = 9*units.Mbps, 20*sim.Millisecond, 768*units.KB
			return []*netem.Link{l}
		}
		cliAddr, srvAddr := seg.MakeAddr("10.0.0.2", 40000), seg.MakeAddr("192.168.1.1", 8080)
		network.AddDuplexRoute(cliAddr.IP, srvAddr.IP, client, server, link("up"), link("down"))
		lis := tcp.Listen(server, network, srvAddr.Port, cfg, rng.Child("srv"))
		lis.OnAccept = func(ep *tcp.Endpoint, _ *seg.Segment) bool {
			ep.OnEstablished = func() {
				ep.Write(size)
				ep.Close()
			}
			return true
		}
		ep := tcp.NewEndpoint(client, network, cliAddr, srvAddr, cfg, rng.Child("cli"))
		rcvd := 0
		ep.OnDeliver = func(n int) {
			if rcvd += n; rcvd >= size {
				ep.Close()
			}
		}
		ep.Connect()
		s.RunUntil(30 * sim.Minute)
		if rcvd != size {
			b.Fatalf("received %d of %d bytes", rcvd, size)
		}
	}
}

// --- Extension: mobility/outage sweep (beyond the paper's §6 text) ---

func BenchmarkMobilityOutageSweep(b *testing.B) {
	opts := benchOpts
	for i := 0; i < b.N; i++ {
		m := campaign("mobility", func() *experiment.Matrix { return experiment.Mobility(opts) })
		for _, row := range m.Rows {
			for j, d := range m.Sizes {
				c := row.Cells[j]
				b.ReportMetric(c.Times.Median(), fmt.Sprintf("s_median/%s/outage_%ds", slug(row.Label), int64(d)))
				if c.Failures > 0 {
					b.ReportMetric(float64(c.Failures), fmt.Sprintf("failures/%s/outage_%ds", slug(row.Label), int64(d)))
				}
			}
		}
	}
}

// --- Allocation gates for the pooled hot path ---
//
// These are Tests, not Benchmarks, so every CI test run enforces them:
// a change that reintroduces per-event or per-packet allocation fails
// here rather than silently regressing the numbers in EXPERIMENTS.md.

// TestSimEventLoopAllocFree pins the schedule+dispatch cycle at zero
// allocations: events come from the simulator's free list and handles
// are plain values.
func TestSimEventLoopAllocFree(t *testing.T) {
	s := sim.New()
	fn := func() {}
	if a := testing.AllocsPerRun(10000, func() {
		s.After(sim.Microsecond, "e", fn)
		s.Step()
	}); a != 0 {
		t.Errorf("sim schedule+step allocates %v objects per event, want 0", a)
	}
}

// TestSegAppendEncodeAllocFree pins wire encoding into a reused
// scratch buffer (the pcap tap's steady state) at zero allocations.
func TestSegAppendEncodeAllocFree(t *testing.T) {
	s := &seg.Segment{
		Src: seg.MakeAddr("10.0.0.2", 40000), Dst: seg.MakeAddr("192.168.1.1", 8080),
		Seq: 12345, Ack: 67890, Flags: seg.ACK, Window: 31000, PayloadLen: 1460,
	}
	s.AddDSS(seg.DSSOption{HasMap: true, HasAck: true, DataSeq: 1 << 33, Length: 1460})
	scratch := seg.AppendEncode(nil, s) // size the buffer once
	if a := testing.AllocsPerRun(1000, func() {
		scratch = seg.AppendEncode(scratch[:0], s)
	}); a != 0 {
		t.Errorf("AppendEncode into sized scratch allocates %v objects per frame, want 0", a)
	}
}

// TestHandshakeOptionsAllocFree pins decorating a pooled SYN with the
// full handshake option set at zero allocations: options are slots in
// the segment, not boxed values in a slice.
func TestHandshakeOptionsAllocFree(t *testing.T) {
	var pool seg.Pool
	pool.Put(pool.Get())
	if a := testing.AllocsPerRun(1000, func() {
		for join := 0; join < 2; join++ {
			s := pool.Get()
			s.Flags = seg.SYN
			s.AddMSS(seg.MSSOption{MSS: 1460}).AddWindowScale(seg.WindowScaleOption{Shift: 7}).AddSACKPermitted()
			if join == 0 {
				s.AddMPCapable(seg.MPCapableOption{Key: 0xDEADBEEF})
			} else {
				s.AddMPJoin(seg.MPJoinOption{Token: 0xABCD1234, Nonce: 42, AddrID: 1})
			}
			if s.WireSize() != 20+20+24 {
				t.Fatalf("SYN wire size %d", s.WireSize())
			}
			pool.Put(s)
		}
	}); a != 0 {
		t.Errorf("decorating a pooled SYN allocates %v objects, want 0", a)
	}
}

// TestSegEncodeDecodeAllocBudget bounds the full encode+decode round
// trip (used off the hot path, by trace analysis) at the two objects it
// needs: the wire buffer and the decoded segment.
func TestSegEncodeDecodeAllocBudget(t *testing.T) {
	s := &seg.Segment{
		Src: seg.MakeAddr("10.0.0.2", 40000), Dst: seg.MakeAddr("192.168.1.1", 8080),
		Seq: 12345, Ack: 67890, Flags: seg.ACK, Window: 31000, PayloadLen: 1460,
	}
	s.AddDSS(seg.DSSOption{HasMap: true, HasAck: true, DataSeq: 1 << 33, Length: 1460})
	if a := testing.AllocsPerRun(1000, func() {
		wire := seg.Encode(s)
		if _, err := seg.Decode(wire); err != nil {
			t.Fatal(err)
		}
	}); a > 2 {
		t.Errorf("Encode+Decode allocates %v objects per frame, want <= 2", a)
	}
}

// TestReorderBufferAllocFree pins the out-of-order insert/heal cycle
// at zero steady-state allocations (reused scratch + in-place splice).
func TestReorderBufferAllocFree(t *testing.T) {
	rb := mptcp.NewReorderBuffer(0)
	var at uint64
	// Warm up: let blocks/scratch grow to working size.
	for i := 0; i < 64; i++ {
		rb.Insert(sim.Time(i), at+1460, at+2920, 1)
		rb.Insert(sim.Time(i), at, at+1460, 0)
		at += 2920
	}
	if a := testing.AllocsPerRun(1000, func() {
		rb.Insert(0, at+1460, at+2920, 1)
		rb.Insert(0, at, at+1460, 0)
		at += 2920
	}); a != 0 {
		t.Errorf("reorder insert+heal allocates %v objects per packet pair, want 0", a)
	}
}

// TestDownloadAllocBudget bounds a complete 4 MB download — testbed
// construction included — end to end. The ceilings are the ones
// cmd/benchjson gates BenchmarkSingleDownload4MB and
// BenchmarkTCPSingle4MB on, ~25% above the measured totals (~580
// allocs for MP2, ~345 for single-path TCP, from ~54k and ~41k before
// the pooling rounds), so `go test ./...` alone fails where `make
// bench` would: a change that reintroduces per-packet or per-event
// allocation anywhere in the stack fails this test long before it
// shows up in EXPERIMENTS.md.
func TestDownloadAllocBudget(t *testing.T) {
	budgets := []struct {
		transport experiment.Transport
		limit     float64
	}{
		{experiment.MP2, 720},
		{experiment.SPWiFi, 420},
	}
	for _, bt := range budgets {
		run := func() {
			tb := experiment.NewTestbed(experiment.TestbedConfig{
				WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
				SampleProfiles: true, WarmRadio: true, Seed: 1,
			})
			res := tb.Run(experiment.RunConfig{Transport: bt.transport, Size: 4 * units.MB})
			if !res.Completed {
				t.Fatal("download failed")
			}
		}
		run() // warm shared package state before counting
		if a := testing.AllocsPerRun(5, run); a > bt.limit {
			t.Errorf("%v 4MB download allocates %v objects, budget %v", bt.transport, a, bt.limit)
		}
	}
}
