// Campaign constructors for every figure and table of the paper. Each
// takes CampaignOpts and honors all its knobs — in particular
// opts.Workers: every campaign fans its runs out over the parallel
// runner (default: all CPUs) with byte-identical results to a serial
// run, so callers may parallelize freely.

package experiment

import (
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// File-size sets used by the paper's campaigns.
var (
	BaselineSizes  = []units.ByteCount{64 * units.KB, 512 * units.KB, 2 * units.MB, 16 * units.MB}
	SmallFlowSizes = []units.ByteCount{8 * units.KB, 64 * units.KB, 512 * units.KB, 4 * units.MB}
	LargeFlowSizes = []units.ByteCount{4 * units.MB, 8 * units.MB, 16 * units.MB, 32 * units.MB}
	SimSYNSizes    = []units.ByteCount{8 * units.KB, 64 * units.KB, 512 * units.KB, 2 * units.MB}
)

func sp(t Transport) func(units.ByteCount) RunConfig {
	return func(size units.ByteCount) RunConfig {
		return RunConfig{Transport: t, Size: size}
	}
}

func mp(t Transport, controller string) func(units.ByteCount) RunConfig {
	return func(size units.ByteCount) RunConfig {
		return RunConfig{Transport: t, Controller: controller, Size: size}
	}
}

// Baseline reproduces Figures 2 and 3 and Table 2: single-path TCP
// over WiFi and each cellular carrier, and 2-path MPTCP (coupled) with
// each carrier, across 64 KB - 16 MB downloads.
func Baseline(opts CampaignOpts) *Matrix {
	wifi := pathmodel.ComcastHome()
	rows := []RowSpec{
		{Label: "SP-WiFi", WiFi: wifi, Cell: pathmodel.ATT(), Make: sp(SPWiFi)},
	}
	for _, carrier := range pathmodel.Carriers() {
		rows = append(rows, RowSpec{
			Label: "SP-" + carrier.Name, WiFi: wifi, Cell: carrier, Make: sp(SPCell),
		})
	}
	for _, carrier := range pathmodel.Carriers() {
		rows = append(rows, RowSpec{
			Label: "MP-" + carrier.Name, WiFi: wifi, Cell: carrier, Make: mp(MP2, "coupled"),
		})
	}
	return runMatrix("fig2", "Baseline download time (Fig 2), cellular share (Fig 3), path characteristics (Table 2)",
		rows, BaselineSizes, opts)
}

// SmallFlows reproduces Figures 4 and 5 and Table 3: 8 KB - 4 MB
// downloads over AT&T LTE + home WiFi, comparing subflow counts and
// congestion controllers.
func SmallFlows(opts CampaignOpts) *Matrix {
	return flowsMatrix("fig4", "Small flows over AT&T+WiFi (Fig 4/5, Table 3)",
		pathmodel.ComcastHome(), SmallFlowSizes, opts,
		[]string{"coupled", "olia", "reno"})
}

// LargeFlows reproduces Figures 9 and 10 and Table 5: 4 - 32 MB
// downloads where the congestion controllers leave slow start and
// differ (§4.2).
func LargeFlows(opts CampaignOpts) *Matrix {
	return flowsMatrix("fig9", "Large flows over AT&T+WiFi (Fig 9/10, Table 5)",
		pathmodel.ComcastHome(), LargeFlowSizes, opts,
		[]string{"coupled", "olia", "reno"})
}

// CoffeeShop reproduces Figure 6/7 and Table 4: the lossy public
// hotspot. The paper skipped olia here "for the sake of time".
func CoffeeShop(opts CampaignOpts) *Matrix {
	return flowsMatrix("fig6", "Coffee-shop public WiFi (Fig 6/7, Table 4)",
		pathmodel.CoffeeShop(), SmallFlowSizes, opts,
		[]string{"coupled", "reno"})
}

// flowsMatrix builds the SP/MP-2/MP-4 x controller grid shared by the
// small-flow, large-flow, and coffee-shop campaigns.
func flowsMatrix(id, title string, wifi pathmodel.Profile, sizes []units.ByteCount,
	opts CampaignOpts, controllers []string) *Matrix {
	att := pathmodel.ATT()
	rows := []RowSpec{
		{Label: "SP-WiFi", WiFi: wifi, Cell: att, Make: sp(SPWiFi)},
		{Label: "SP-ATT", WiFi: wifi, Cell: att, Make: sp(SPCell)},
	}
	for _, ctrl := range controllers {
		rows = append(rows, RowSpec{Label: "MP-2 (" + ctrl + ")", WiFi: wifi, Cell: att, Make: mp(MP2, ctrl)})
	}
	for _, ctrl := range controllers {
		rows = append(rows, RowSpec{Label: "MP-4 (" + ctrl + ")", WiFi: wifi, Cell: att, Make: mp(MP4, ctrl)})
	}
	return runMatrix(id, title, rows, sizes, opts)
}

// SimultaneousSYN reproduces Figure 8: stock delayed-SYN MPTCP versus
// the simultaneous-SYN patch, 2-path over AT&T.
func SimultaneousSYN(opts CampaignOpts) *Matrix {
	wifi := pathmodel.ComcastHome()
	att := pathmodel.ATT()
	rows := []RowSpec{
		{Label: "MP-2 delayed-SYN", WiFi: wifi, Cell: att, Make: mp(MP2, "coupled")},
		{Label: "MP-2 simultaneous-SYN", WiFi: wifi, Cell: att, Make: func(size units.ByteCount) RunConfig {
			return RunConfig{Transport: MP2, Controller: "coupled", Size: size, SimultaneousSYN: true}
		}},
	}
	return runMatrix("fig8", "Simultaneous vs delayed SYN (Fig 8)", rows, SimSYNSizes, opts)
}

// Backlog reproduces Figure 11: approximate infinite backlog via a
// single very large download (512 MB in the paper; Size overridable
// for quick runs) under coupled and uncoupled reno, 2 and 4 paths.
// The study is far heavier per run than the rest of the matrix, so
// repetitions are capped at 3.
func Backlog(size units.ByteCount, opts CampaignOpts) *Matrix {
	if size == 0 {
		size = 512 * units.MB
	}
	if opts.reps() > 3 {
		opts.Reps = 3
	}
	wifi := pathmodel.ComcastHome()
	att := pathmodel.ATT()
	rows := []RowSpec{
		{Label: "MP-2 (coupled)", WiFi: wifi, Cell: att, Make: mp(MP2, "coupled")},
		{Label: "MP-2 (reno)", WiFi: wifi, Cell: att, Make: mp(MP2, "reno")},
		{Label: "MP-4 (coupled)", WiFi: wifi, Cell: att, Make: mp(MP4, "coupled")},
		{Label: "MP-4 (reno)", WiFi: wifi, Cell: att, Make: mp(MP4, "reno")},
	}
	return runMatrix("fig11", "Infinite backlog (Fig 11)", rows, []units.ByteCount{size}, opts)
}

// LatencyDistribution reproduces Figures 12 and 13 and Table 6: 2-path
// MPTCP (coupled) per carrier for 4-32 MB downloads, collecting
// per-packet RTT distributions by interface and out-of-order delay
// distributions at the receiver.
func LatencyDistribution(opts CampaignOpts) *Matrix {
	wifi := pathmodel.ComcastHome()
	var rows []RowSpec
	for _, carrier := range pathmodel.Carriers() {
		rows = append(rows, RowSpec{
			Label: "MP-" + carrier.Name, WiFi: wifi, Cell: carrier, Make: mp(MP2, "coupled"),
		})
	}
	return runMatrix("fig12", "Latency distributions (Fig 12/13, Table 6)", rows, LargeFlowSizes, opts)
}

// ShootoutSizes samples one small-flow and one bulk point — enough to
// see scheduler policy effects in both regimes without a full grid.
var ShootoutSizes = []units.ByteCount{256 * units.KB, 4 * units.MB}

// SchedulerShootout crosses the packet schedulers with congestion
// controllers over two modern path pairings the paper never measured:
// dual LTE (a second carrier in the WiFi slot, after "Is Two Greater
// Than One?") and LTE+5G-mmWave with blockage fades. Every cell
// reports download time, the traffic split, and per-path RTT/loss, so
// the matrix answers both "which scheduler wins on symmetric cellular
// paths?" and "can a scheduler exploit a fast fragile path?".
func SchedulerShootout(opts CampaignOpts) *Matrix {
	att := pathmodel.ATT()
	pairings := []struct {
		tag  string
		wifi pathmodel.Profile
	}{
		{"dual-lte", pathmodel.DualLTE()},
		{"lte+5g", pathmodel.MmWave5G()},
	}
	mk := func(ctrl, sched string) func(units.ByteCount) RunConfig {
		return func(size units.ByteCount) RunConfig {
			return RunConfig{Transport: MP2, Controller: ctrl, Scheduler: sched, Size: size}
		}
	}
	var rows []RowSpec
	for _, pr := range pairings {
		for _, sched := range []string{"minrtt", "roundrobin", "weighted", "redundant", "blest", "adaptive"} {
			for _, ctrl := range []string{"coupled", "olia"} {
				rows = append(rows, RowSpec{
					Label: pr.tag + " " + sched + " (" + ctrl + ")",
					WiFi:  pr.wifi, Cell: att,
					Make: mk(ctrl, sched),
				})
			}
		}
	}
	return runMatrix("shootout", "Scheduler x CC x profile shootout (dual-LTE and LTE+5G-mmWave pairings)",
		rows, ShootoutSizes, opts)
}

// Mobility extends the paper's §6 discussion into a measured campaign:
// a 16 MB download with a WiFi outage injected mid-transfer, sweeping
// the outage duration, for single-path TCP, full MPTCP, and MPTCP in
// backup mode. The "size" axis is reused to carry the outage duration
// in seconds.
func Mobility(opts CampaignOpts) *Matrix {
	wifi := pathmodel.ComcastHome()
	att := pathmodel.ATT()
	durations := []units.ByteCount{1, 3, 6} // seconds, carried on the size axis
	mk := func(t Transport, sched string) func(units.ByteCount) RunConfig {
		return func(d units.ByteCount) RunConfig {
			return RunConfig{
				Transport:       t,
				Scheduler:       sched,
				BackupCell:      sched == "backup",
				Size:            16 * units.MB,
				WiFiOutageStart: 1 * sim.Second,
				WiFiOutageEnd:   sim.Time(1+int64(d)) * sim.Second,
				Timeout:         20 * sim.Minute,
			}
		}
	}
	rows := []RowSpec{
		{Label: "SP-WiFi", WiFi: wifi, Cell: att, Make: mk(SPWiFi, "")},
		{Label: "MP-2 (lowest-rtt)", WiFi: wifi, Cell: att, Make: mk(MP2, "lowest-rtt")},
		{Label: "MP-2 (backup)", WiFi: wifi, Cell: att, Make: mk(MP2, "backup")},
	}
	return runMatrix("mobility", "WiFi outage sweep (beyond the paper; outage seconds on the size axis)",
		rows, durations, opts)
}
