package experiment

import (
	"testing"

	"mptcplab/internal/pathmodel"
	"mptcplab/internal/stats"
	"mptcplab/internal/units"
)

// runs downloads rc reps times, each on a fresh testbed of its own seed.
func runs(t *testing.T, rc RunConfig, cell pathmodel.Profile, wifi pathmodel.Profile, reps int, seed int64) []RunResult {
	t.Helper()
	var results []RunResult
	for i := 0; i < reps; i++ {
		tb := NewTestbed(TestbedConfig{
			WiFi: wifi, Cell: cell,
			ServerSecondIface: rc.Transport == MP4,
			SampleProfiles:    true, WarmRadio: true,
			Seed: seed + int64(i)*977,
		})
		res := tb.Run(rc)
		if !res.Completed {
			t.Fatalf("%s did not complete (rep %d)", rc.Describe(), i)
		}
		results = append(results, res)
	}
	return results
}

// The paper's shapes — orderings, factors, growth curves — are
// scorecard rows (scorecard.go, SCORECARD.csv), each with the paper's
// number and a band, scored at three seed families by TestScorecard.
// Each test below names the unowned passing rows that gate one group of
// those shapes, so that a regression in it fails TestScorecard.

func TestMPTCPTracksBestPath16MB(t *testing.T) {
	requireGates(t, "fig2-mp-att-16mb", "fig2-mp-att-16mb-win")
}
func TestMPTCPRobustToPoorCellular(t *testing.T) { requireGates(t, "fig2-mp-sprint-2mb-vs-wifi") }
func TestCellularShareGrowsWithSize(t *testing.T) {
	requireGates(t, "fig5-share-8kb", "fig5-share-4mb", "fig5-share-growth")
}
func TestFourPathsBeatTwo(t *testing.T) { requireGates(t, "fig4-mp4-vs-mp2-4mb") }
func TestControllerOrderingLargeFlows(t *testing.T) {
	requireGates(t, "fig9-reno-vs-coupled-16mb", "fig9-olia-vs-coupled-16mb-plausible")
}
func TestSimultaneousSYNHelpsMidsizeFlows(t *testing.T) {
	requireGates(t, "fig8-simsyn-512kb-no-harm")
}
func TestOFODelayByCarrier(t *testing.T) {
	requireGates(t, "t6-ofo-att-over-sprint", "fig13-gt150ms-sprint", "fig13-gt150ms-att")
}
func TestRTTDistributionsByCarrier(t *testing.T) {
	requireGates(t, "fig12-wifi-rtt-gt48ms", "fig12-att-rtt-gt37ms", "fig12-p90-verizon-over-att", "fig12-p90-sprint-over-verizon", "fig12-sprint-rtt-gt1.8s")
}

// §3.1 ablation: with the Linux-default infinite ssthresh, the
// cellular path never leaves slow start and suffers worse RTT
// inflation than with the paper's 64 KB cap.
func TestInfiniteSsthreshInflatesCellularRTT(t *testing.T) {
	wifi := pathmodel.ComcastHome()
	att := pathmodel.ATT()
	size := units.ByteCount(8 * units.MB)

	maxRTT := func(inf bool, seed int64) float64 {
		s := stats.New()
		for _, r := range runs(t, RunConfig{Transport: SPCell, Size: size, InfiniteSSThresh: inf}, att, wifi, 3, seed) {
			s.AddAll(r.CellRTTms)
		}
		return s.Quantile(0.95)
	}
	capped := maxRTT(false, 200)
	infinite := maxRTT(true, 200)
	if infinite < capped {
		t.Errorf("p95 cellular RTT with infinite ssthresh (%.0fms) below capped (%.0fms)", infinite, capped)
	}
}
