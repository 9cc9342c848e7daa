package chaos

import (
	"fmt"
	"io"

	"mptcplab/internal/units"
)

// Report is one run's resilience record: plain data, computed once by
// Monitor.Finish and read as-is by every export, result codec and CLI.
// Everything here derives from virtual time, so equal seeds and specs
// give equal reports regardless of worker count or wall clock.
type Report struct {
	Schedule string `json:"chaos"`

	// Tracked flows and their verdicts (see Monitor.Finish).
	Flows      int `json:"res_flows"`
	OK         int `json:"res_ok"`
	Late       int `json:"res_late"`
	Incomplete int `json:"res_incomplete"`
	Stalled    int `json:"res_stalled"`
	Aborted    int `json:"res_aborted"`

	// Stall spans over all flows; StallMeanS averages the total stall
	// time of the flows that stalled at all.
	Stalls        int     `json:"res_stalls"`
	LongestStallS float64 `json:"res_longest_stall_s"`
	StallMeanS    float64 `json:"res_stall_s_mean"`

	// Time to recover: per fault window a flow lived through, the delay
	// from the window's end to the flow's first progress afterwards
	// (quantized to the sampling period). Unrecovered counts the windows
	// a flow never recovered from.
	Recoveries  int     `json:"res_recoveries"`
	Unrecovered int     `json:"res_unrecovered"`
	TTRMeanS    float64 `json:"res_ttr_s_mean"`
	TTRMaxS     float64 `json:"res_ttr_s_max"`

	// Bytes flows moved inside and outside fault windows, and the
	// aggregate bits/sec that makes over the sampled time.
	FaultBytes  int64   `json:"res_fault_bytes"`
	SteadyBytes int64   `json:"res_steady_bytes"`
	FaultBps    float64 `json:"res_fault_bps"`
	SteadyBps   float64 `json:"res_steady_bps"`

	// Per-path delivery-rate telemetry (bits/sec means of the
	// per-tick RateEstimator samples, split by fault-window
	// membership) and per-path mean recovery time after fault windows
	// — zero when the run wired no Monitor.PathRates source.
	WiFiFaultBps  float64 `json:"res_wifi_fault_bps"`
	WiFiSteadyBps float64 `json:"res_wifi_steady_bps"`
	WiFiTTRSec    float64 `json:"res_wifi_ttr_s"`
	CellFaultBps  float64 `json:"res_cell_fault_bps"`
	CellSteadyBps float64 `json:"res_cell_steady_bps"`
	CellTTRSec    float64 `json:"res_cell_ttr_s"`

	// Retries is always 0: nothing retries at the application level.
	// The column stays until the next golden recalibration drops it.
	Retries  int `json:"res_retries"`
	Timeouts int `json:"res_timeouts"`

	// Graceful is the run's degrade-gracefully verdict: "graceful" when
	// every flow completed (on time or late), "degraded" when some were
	// cut off but nothing wedged, "failed" when any flow stalled forever
	// or was aborted.
	Graceful string `json:"res_graceful"`
}

// WriteText renders the report for a human, indented to sit under the
// caller's own schedule line.
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "  verdict:    %s (%d ok, %d late, %d incomplete, %d stalled, %d aborted)\n",
		r.Graceful, r.OK, r.Late, r.Incomplete, r.Stalled, r.Aborted)
	fmt.Fprintf(w, "  stalls:     %d, longest %.3fs\n", r.Stalls, r.LongestStallS)
	if r.Recoveries > 0 {
		fmt.Fprintf(w, "  recovery:   %d fault(s) recovered, TTR mean %.3fs max %.3fs; %d unrecovered\n",
			r.Recoveries, r.TTRMeanS, r.TTRMaxS, r.Unrecovered)
	} else if r.Unrecovered > 0 {
		fmt.Fprintf(w, "  recovery:   %d fault(s) never recovered before the flow ended\n", r.Unrecovered)
	}
	fmt.Fprintf(w, "  goodput:    %.2f Mbps during faults vs %.2f Mbps steady; %d retries, %d timeouts\n",
		r.FaultBps/float64(units.Mbps), r.SteadyBps/float64(units.Mbps), r.Retries, r.Timeouts)
}
