package load

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"mptcplab/internal/chaos"
)

// RunExport is the machine-readable summary of one fleet run. Exports
// are a pure function of the sweep seed: no wall-clock or scheduling
// metadata appears, so equal seeds give byte-identical files for any
// worker count.
type RunExport struct {
	Rate    float64 `json:"rate_flows_per_s"`
	Clients int     `json:"clients"`
	Sched   string  `json:"sched,omitempty"`
	Rep     int     `json:"rep"`
	Seed    int64   `json:"seed"`
	Replay  string  `json:"replay"`

	Offered    int `json:"offered"`
	Completed  int `json:"completed"`
	Incomplete int `json:"incomplete"`

	FCTMean float64 `json:"fct_s_mean"`
	FCTP50  float64 `json:"fct_s_p50"`
	FCTP90  float64 `json:"fct_s_p90"`
	FCTP99  float64 `json:"fct_s_p99"`
	FCTMax  float64 `json:"fct_s_max"`

	SmallP50 float64 `json:"fct_small_s_p50"`
	LargeP50 float64 `json:"fct_large_s_p50"`

	GoodputMean float64 `json:"goodput_bps_mean"`
	Jain        float64 `json:"jain"`
	CellShare   float64 `json:"cell_share"`

	// Redundancy accounting (non-zero under the redundant scheduler):
	// duplicate bytes scheduled by senders and discarded by receivers.
	// Goodput and delivered-byte metrics above exclude them by
	// construction.
	DupTxBytes int64 `json:"dup_tx_bytes,omitempty"`
	DupRxBytes int64 `json:"dup_rx_bytes,omitempty"`

	APDownUtil   float64 `json:"ap_down_util"`
	CellDownUtil float64 `json:"cell_down_util"`
	APDownQDrop  uint64  `json:"ap_down_qdrop"`
	CellDownDrop uint64  `json:"cell_down_qdrop"`

	WiFiRetransPct float64 `json:"wifi_retrans_pct"`
	CellRetransPct float64 `json:"cell_retrans_pct"`

	// Per-path delivered (cumulatively ACKed) bytes, from the MPTCP
	// subflow delivery-rate telemetry; zero for plain-TCP transports.
	WiFiAckedBytes int64 `json:"wifi_acked_bytes,omitempty"`
	CellAckedBytes int64 `json:"cell_acked_bytes,omitempty"`

	Violations int `json:"violations"`

	// Harness outcome: failed runs (contained panic, watchdog kill)
	// keep their row with whatever stats accumulated, plus the reason.
	Failed     bool   `json:"failed"`
	FailReason string `json:"fail_reason,omitempty"`
}

// exportRun flattens one run. token is the run's replay token (see
// newRow).
func exportRun(p SweepPoint, rep int, res *Result, token string) RunExport {
	e := RunExport{
		Rate: p.Rate, Clients: p.Clients, Sched: p.Sched, Rep: rep,
		Seed: res.Seed, Replay: token,
		Offered: res.Offered, Completed: res.Completed, Incomplete: res.Incomplete,
		DupTxBytes: res.DupTxBytes, DupRxBytes: res.DupRxBytes,
		FCTMean:        res.FCT.Mean(),
		FCTP50:         res.FCT.Quantile(0.50),
		FCTP90:         res.FCT.Quantile(0.90),
		FCTP99:         res.FCT.Quantile(0.99),
		FCTMax:         res.FCT.Max(),
		GoodputMean:    res.Goodput.Mean(),
		Jain:           res.Goodput.Jain(),
		CellShare:      res.CellShare(),
		WiFiAckedBytes: res.WiFiAckedBytes,
		CellAckedBytes: res.CellAckedBytes,
		Violations:     res.Violations,
		Failed:         res.Failed,
		FailReason:     res.FailReason,
	}
	if res.FCTSmall.N() > 0 {
		e.SmallP50 = res.FCTSmall.Quantile(0.5)
	}
	if res.FCTLarge.N() > 0 {
		e.LargeP50 = res.FCTLarge.Quantile(0.5)
	}
	for _, l := range res.Links {
		switch l.Name {
		case "ap-down", "wifi-down":
			e.APDownUtil = l.Utilization
			e.APDownQDrop = l.QueueDrop
		case "cell-down":
			e.CellDownUtil = l.Utilization
			e.CellDownDrop = l.QueueDrop
		}
	}
	if res.WiFiPkts > 0 {
		e.WiFiRetransPct = 100 * float64(res.WiFiRetransPkts) / float64(res.WiFiPkts)
	}
	if res.CellPkts > 0 {
		e.CellRetransPct = 100 * float64(res.CellRetransPkts) / float64(res.CellPkts)
	}
	return e
}

// Export lists the sweep's run records, one per executed run, in grid
// order.
func (sw *Sweep) Export() []RunExport {
	var out []RunExport
	for _, r := range sw.rows {
		if r != nil {
			out = append(out, r.Run)
		}
	}
	return out
}

// WriteJSON emits the sweep as a JSON array of run records. The Config
// parameter of this and the three writers below is unused — rows carry
// their own replay tokens — and stays only because frozen bench/ passes
// it; the next benchmark PR drops it.
func (sw *Sweep) WriteJSON(w io.Writer, _ Config) error {
	return writeIndented(w, sw.Export())
}

func writeIndented(w io.Writer, rows any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rows)
}

// csvHeader lists the exported columns, in order.
var csvHeader = []string{
	"rate_flows_per_s", "clients", "sched", "rep", "seed",
	"offered", "completed", "incomplete",
	"fct_s_mean", "fct_s_p50", "fct_s_p90", "fct_s_p99", "fct_s_max",
	"fct_small_s_p50", "fct_large_s_p50",
	"goodput_bps_mean", "jain", "cell_share",
	"dup_tx_bytes", "dup_rx_bytes",
	"ap_down_util", "cell_down_util", "ap_down_qdrop", "cell_down_qdrop",
	"wifi_retrans_pct", "cell_retrans_pct",
	"wifi_acked_bytes", "cell_acked_bytes", "violations",
	"failed", "fail_reason", "replay",
}

// WriteCSV emits the sweep as CSV with a header row.
func (sw *Sweep) WriteCSV(w io.Writer, _ Config) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, e := range sw.Export() {
		rec := []string{
			f(e.Rate), strconv.Itoa(e.Clients), e.Sched, strconv.Itoa(e.Rep),
			strconv.FormatInt(e.Seed, 10),
			strconv.Itoa(e.Offered), strconv.Itoa(e.Completed), strconv.Itoa(e.Incomplete),
			f(e.FCTMean), f(e.FCTP50), f(e.FCTP90), f(e.FCTP99), f(e.FCTMax),
			f(e.SmallP50), f(e.LargeP50),
			f(e.GoodputMean), f(e.Jain), f(e.CellShare),
			strconv.FormatInt(e.DupTxBytes, 10), strconv.FormatInt(e.DupRxBytes, 10),
			f(e.APDownUtil), f(e.CellDownUtil),
			strconv.FormatUint(e.APDownQDrop, 10), strconv.FormatUint(e.CellDownDrop, 10),
			f(e.WiFiRetransPct), f(e.CellRetransPct),
			strconv.FormatInt(e.WiFiAckedBytes, 10), strconv.FormatInt(e.CellAckedBytes, 10),
			strconv.Itoa(e.Violations),
			strconv.FormatBool(e.Failed), e.FailReason, e.Replay,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Describe summarizes the sweep shape for progress output.
func (sw *Sweep) Describe() string {
	reps := 0
	if len(sw.Points) > 0 {
		reps = len(sw.Points[0].Runs)
	}
	return fmt.Sprintf("load sweep: %d points (%d rates) x %d reps",
		len(sw.Points), len(sw.sortedRates()), reps)
}

// ResilienceExport is one chaos run's resilience row: grid position +
// the flattened chaos report + harness outcome + replay token.
type ResilienceExport struct {
	Rate    float64 `json:"rate_flows_per_s"`
	Clients int     `json:"clients"`
	Rep     int     `json:"rep"`
	Seed    int64   `json:"seed"`

	Failed     bool   `json:"failed"`
	FailReason string `json:"fail_reason,omitempty"`

	chaos.ReportExport

	// Per-path delivered (cumulatively ACKed) bytes over the whole
	// run, from the per-subflow RateEstimator telemetry — read
	// alongside the report's per-path fault/steady delivery rates to
	// assert fade recovery path by path.
	WiFiAckedBytes int64 `json:"wifi_acked_bytes,omitempty"`
	CellAckedBytes int64 `json:"cell_acked_bytes,omitempty"`

	Violations int    `json:"violations"`
	Replay     string `json:"replay"`
}

// exportResilience flattens a single run's resilience row; ok is
// false when the run produced no row (no chaos report and no harness
// failure).
func exportResilience(p SweepPoint, rep int, res *Result, token string) (ResilienceExport, bool) {
	if res.Resilience == nil && !res.Failed {
		return ResilienceExport{}, false
	}
	e := ResilienceExport{
		Rate: p.Rate, Clients: p.Clients, Rep: rep, Seed: res.Seed,
		Failed: res.Failed, FailReason: res.FailReason,
		WiFiAckedBytes: res.WiFiAckedBytes,
		CellAckedBytes: res.CellAckedBytes,
		Violations:     res.Violations,
		Replay:         token,
	}
	if res.Resilience != nil {
		e.ReportExport = res.Resilience.Export(res.ChaosSpec)
	} else {
		e.Schedule = res.ChaosSpec
	}
	return e, true
}

// ExportResilience lists the sweep's resilience reports, one record
// per executed run, in grid order. Failed runs (contained panic or
// watchdog kill) appear with zeroed resilience fields and the failure
// reason; runs without a chaos schedule are skipped.
func (sw *Sweep) ExportResilience() []ResilienceExport {
	var out []ResilienceExport
	for _, r := range sw.rows {
		if r != nil && r.Resilience != nil {
			out = append(out, *r.Resilience)
		}
	}
	return out
}

// WriteResilienceJSON emits the resilience rows as a JSON array.
func (sw *Sweep) WriteResilienceJSON(w io.Writer, _ Config) error {
	return writeIndented(w, sw.ExportResilience())
}

// resCSVHeader lists the resilience columns, in order.
var resCSVHeader = []string{
	"rate_flows_per_s", "clients", "rep", "seed", "failed", "fail_reason",
	"chaos", "res_flows", "res_ok", "res_late", "res_incomplete",
	"res_stalled", "res_aborted", "res_stalls", "res_longest_stall_s",
	"res_stall_s_mean", "res_recoveries", "res_unrecovered",
	"res_ttr_s_mean", "res_ttr_s_max", "res_fault_bytes",
	"res_steady_bytes", "res_fault_bps", "res_steady_bps",
	"res_wifi_fault_bps", "res_wifi_steady_bps", "res_wifi_ttr_s",
	"res_cell_fault_bps", "res_cell_steady_bps", "res_cell_ttr_s",
	"wifi_acked_bytes", "cell_acked_bytes",
	"res_retries", "res_timeouts", "res_graceful", "violations", "replay",
}

// WriteResilienceCSV emits the resilience rows as CSV with a header.
func (sw *Sweep) WriteResilienceCSV(w io.Writer, _ Config) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(resCSVHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for _, e := range sw.ExportResilience() {
		rec := []string{
			f(e.Rate), strconv.Itoa(e.Clients), strconv.Itoa(e.Rep),
			strconv.FormatInt(e.Seed, 10),
			strconv.FormatBool(e.Failed), e.FailReason,
			e.Schedule,
			strconv.Itoa(e.Flows), strconv.Itoa(e.OK), strconv.Itoa(e.Late),
			strconv.Itoa(e.Incomplete), strconv.Itoa(e.Stalled), strconv.Itoa(e.Aborted),
			strconv.Itoa(e.Stalls), f(e.LongestStallS), f(e.StallMeanS),
			strconv.Itoa(e.Recoveries), strconv.Itoa(e.Unrecovered),
			f(e.TTRMeanS), f(e.TTRMaxS),
			strconv.FormatInt(e.FaultBytes, 10), strconv.FormatInt(e.SteadyBytes, 10),
			f(e.FaultBps), f(e.SteadyBps),
			f(e.WiFiFaultBps), f(e.WiFiSteadyBps), f(e.WiFiTTRSec),
			f(e.CellFaultBps), f(e.CellSteadyBps), f(e.CellTTRSec),
			strconv.FormatInt(e.WiFiAckedBytes, 10), strconv.FormatInt(e.CellAckedBytes, 10),
			strconv.Itoa(e.Retries), strconv.Itoa(e.Timeouts),
			e.Graceful, strconv.Itoa(e.Violations), e.Replay,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
