package load

import (
	"mptcplab/internal/chaos"
	"mptcplab/internal/check"
	"mptcplab/internal/netem"
	"mptcplab/internal/sim"
	"mptcplab/internal/stats"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// Flow-size class boundaries for FCT breakdown: the paper's small-flow
// regime (where MPTCP underperforms), the mid-range crossover, and the
// bulk regime (where aggregation wins).
const (
	SmallFlowMax  = 64 * units.KB
	MediumFlowMax = 4 * units.MB
)

// FCT histogram geometry: 1 ms to 10,000 s in 256 log-spaced bins
// gives a worst-case relative quantile error of about 13% — fixed
// memory for any number of flows.
const (
	fctLo   = 1e-3
	fctHi   = 1e4
	fctBins = 256
)

// LinkUtil is one link's end-of-run accounting.
type LinkUtil struct {
	Name        string
	Rate        units.BitRate
	Bytes       int64
	Sent        uint64
	MediumDrop  uint64
	QueueDrop   uint64
	Utilization float64 // delivered bits / (rate x sim time)
}

// Result accumulates one fleet run's metrics. Every per-flow statistic
// streams through a bounded-memory estimator the moment the flow
// completes, so the result's footprint is O(histogram bins) no matter
// how many flows the run pushed — the acceptance criterion that lets
// campaigns scale to "millions of users" territory.
type Result struct {
	Clients  int
	Seed     int64
	Duration sim.Time
	Drain    sim.Time

	// Flow counts: Offered arrivals, Started stacks, Completed
	// transfers; Incomplete = still in flight when the run ended.
	Offered    int
	Started    int
	Completed  int
	Incomplete int

	// Flow completion time in seconds: overall and per size class.
	FCT       *stats.LogHist
	FCTSmall  *stats.LogHist
	FCTMedium *stats.LogHist
	FCTLarge  *stats.LogHist

	// Streaming FCT quantiles (P² — cross-checked against the
	// histogram in tests).
	FCTp50 *stats.P2Quantile
	FCTp90 *stats.P2Quantile
	FCTp99 *stats.P2Quantile

	// Per-completed-flow goodput in bit/s; Goodput.Jain() is the
	// fairness index over all completed flows.
	Goodput stats.Acc

	// Delivered application bytes, all completed flows.
	BytesDelivered int64

	// Redundancy accounting. Redundant schedulers send each byte once
	// per path; the extra copies appear here — DupTxBytes scheduled by
	// server (sender) connections, DupRxBytes discarded by client
	// reorder buffers — and are excluded from Goodput, BytesDelivered,
	// and the retransmission counters, which measure useful bytes only.
	DupTxBytes int64
	DupRxBytes int64

	// Sender-side per-path accounting (server endpoints, classified by
	// the client interface they serve).
	WiFiBytes       int64
	CellBytes       int64
	WiFiRetrans     int64
	CellRetrans     int64
	WiFiPkts        uint64
	CellPkts        uint64
	WiFiRetransPkts uint64
	CellRetransPkts uint64

	// Per-path delivered (cumulatively ACKed) bytes from the MPTCP
	// subflow delivery-rate telemetry — the numerator the adaptive
	// scheduler weights by. Unlike BytesSent this excludes
	// retransmissions and in-flight losses, so the pair (sent, acked)
	// exposes each path's waste directly in the export.
	WiFiAckedBytes int64
	CellAckedBytes int64

	// Per-link utilization over the full run (access + LAN).
	Links []LinkUtil

	// Failed marks a run the harness killed (watchdog deadline or
	// livelock) or contained after a panic; FailReason is a one-line
	// explanation. Whatever statistics accumulated before the kill are
	// still present above.
	Failed     bool
	FailReason string

	// Resilience is the chaos monitor's report (nil when the run had
	// no schedule); ChaosSpec is the canonical schedule spec it ran.
	Resilience *chaos.Report
	ChaosSpec  string

	// Execution metadata.
	Events         uint64
	SimEnd         sim.Time
	Violations     int
	FirstViolation string
}

func newResult(cfg Config) *Result {
	return &Result{
		Clients:   cfg.Clients,
		Seed:      cfg.Seed,
		Duration:  cfg.Duration,
		Drain:     cfg.Drain,
		FCT:       stats.NewLogHist(fctLo, fctHi, fctBins),
		FCTSmall:  stats.NewLogHist(fctLo, fctHi, fctBins),
		FCTMedium: stats.NewLogHist(fctLo, fctHi, fctBins),
		FCTLarge:  stats.NewLogHist(fctLo, fctHi, fctBins),
		FCTp50:    stats.NewP2Quantile(0.50),
		FCTp90:    stats.NewP2Quantile(0.90),
		FCTp99:    stats.NewP2Quantile(0.99),
	}
}

// absorbFlow folds one completed flow into the streaming estimators.
func (r *Result) absorbFlow(t *world.World, fl *flow, fct sim.Time) {
	r.Completed++
	secs := fct.Seconds()
	r.FCT.Add(secs)
	r.FCTp50.Add(secs)
	r.FCTp90.Add(secs)
	r.FCTp99.Add(secs)
	switch {
	case fl.size <= SmallFlowMax:
		r.FCTSmall.Add(secs)
	case fl.size <= MediumFlowMax:
		r.FCTMedium.Add(secs)
	default:
		r.FCTLarge.Add(secs)
	}
	if secs > 0 {
		r.Goodput.Add(float64(fl.size) * 8 / secs)
	}
	r.BytesDelivered += int64(fl.size)
	r.absorbTx(t, fl)
}

// absorbIncomplete accounts a flow still in flight at run end; its
// sender-side byte counters are folded in so path totals reconcile
// with link counters.
func (r *Result) absorbIncomplete(t *world.World, fl *flow) {
	r.Incomplete++
	r.absorbTx(t, fl)
}

// absorbTx folds the flow's server-side (sender) endpoint stats into
// the per-path counters. Subflows are classified by the client address
// they serve.
func (r *Result) absorbTx(t *world.World, fl *flow) {
	add := func(remote bool, bytesSent, bytesRetrans int64, pkts, retransPkts uint64) {
		if remote {
			r.CellBytes += bytesSent
			r.CellRetrans += bytesRetrans
			r.CellPkts += pkts
			r.CellRetransPkts += retransPkts
		} else {
			r.WiFiBytes += bytesSent
			r.WiFiRetrans += bytesRetrans
			r.WiFiPkts += pkts
			r.WiFiRetransPkts += retransPkts
		}
	}
	if ep := fl.srv.EP; ep != nil {
		add(t.IsCell(ep.Remote), ep.Stats.BytesSent, ep.Stats.BytesRetrans,
			ep.Stats.DataPktsSent, ep.Stats.DataPktsRetrans)
	}
	if c := fl.srv.Conn; c != nil {
		for _, sf := range c.Subflows() {
			add(t.IsCell(sf.EP.Remote), sf.EP.Stats.BytesSent, sf.EP.Stats.BytesRetrans,
				sf.EP.Stats.DataPktsSent, sf.EP.Stats.DataPktsRetrans)
			if t.IsCell(sf.EP.Remote) {
				r.CellAckedBytes += sf.AckedBytes()
			} else {
				r.WiFiAckedBytes += sf.AckedBytes()
			}
		}
		r.DupTxBytes += c.DupTxBytes
	}
	if c := fl.cli.Conn; c != nil {
		r.DupRxBytes += c.Reorder().DupBytes
	}
}

// CellShare is the fraction of sender bytes that travelled the
// cellular path — the paper's traffic-split metric at fleet scale.
func (r *Result) CellShare() float64 {
	total := r.WiFiBytes + r.CellBytes
	if total == 0 {
		return 0
	}
	return float64(r.CellBytes) / float64(total)
}

// finish snapshots link counters and checker findings.
func (r *Result) finish(t *world.World, ck *check.Checker) {
	r.Events = t.Sim.Processed()
	r.SimEnd = t.Sim.Now()
	secs := r.SimEnd.Seconds()
	for _, l := range t.Links() {
		r.Links = append(r.Links, linkUtil(l, secs))
	}
	if ck != nil {
		r.Violations, r.FirstViolation = ck.Summary()
	}
}

func linkUtil(l *netem.Link, secs float64) LinkUtil {
	u := LinkUtil{
		Name:       l.Name,
		Rate:       l.Rate,
		Bytes:      l.Stats.Bytes,
		Sent:       l.Stats.Sent,
		MediumDrop: l.Stats.MediumDrop,
		QueueDrop:  l.Stats.QueueDrop,
	}
	if l.Rate > 0 && secs > 0 {
		u.Utilization = float64(l.Stats.Bytes) * 8 / (float64(l.Rate) * secs)
	}
	return u
}
