package experiment

import (
	"fmt"
	"strings"
	"time"

	"mptcplab/internal/cc"
	"mptcplab/internal/chaos"
	"mptcplab/internal/check"
	"mptcplab/internal/mptcp"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/tcp"
	"mptcplab/internal/units"
	"mptcplab/internal/web"
	"mptcplab/internal/world"
)

// Transport selects the paper's connection configurations (§3.2).
type Transport int

// Transports.
const (
	SPWiFi Transport = iota // single-path TCP over WiFi
	SPCell                  // single-path TCP over the cellular device
	MP2                     // 2-path MPTCP (WiFi default + cellular)
	MP4                     // 4-path MPTCP (both client ifaces x both server ifaces)
)

// String names the transport as the paper's figure legends do.
func (t Transport) String() string {
	switch t {
	case SPWiFi:
		return "SP-WiFi"
	case SPCell:
		return "SP-Cell"
	case MP2:
		return "MP-2"
	case MP4:
		return "MP-4"
	default:
		return "?"
	}
}

// ParseTransport inverts Transport.String and accepts every shorter
// spelling a binary has taken ("wifi", "tcp-cell", "mp2", "mptcp").
func ParseTransport(s string) (Transport, error) {
	switch strings.ToLower(s) {
	case "sp-wifi", "tcp-wifi", "wifi":
		return SPWiFi, nil
	case "sp-cell", "tcp-cell", "cell":
		return SPCell, nil
	case "mp-2", "mp2", "mptcp":
		return MP2, nil
	case "mp-4", "mp4":
		return MP4, nil
	}
	return 0, fmt.Errorf("experiment: unknown transport %q (want sp-wifi|sp-cell|mp2|mp4)", s)
}

// RunConfig describes one download measurement.
type RunConfig struct {
	Transport  Transport
	Controller string // "reno", "coupled", "olia" (default coupled)
	Scheduler  string // scheduler plugin spec (default minrtt)
	Size       units.ByteCount

	SimultaneousSYN bool
	Penalize        bool
	// BackupCell dials with the cellular path flagged as a backup
	// subflow (the MP_JOIN B bit), for use with the "backup" scheduler.
	BackupCell bool

	// SSThresh overrides the paper's 64 KB initial threshold when
	// nonzero; set Infinite to model the Linux default of infinity
	// (the §3.1 ablation).
	SSThresh         units.ByteCount
	InfiniteSSThresh bool
	// RcvBuf overrides the 8 MB receive buffer when nonzero.
	RcvBuf units.ByteCount

	// WiFiOutageStart/End schedule a WiFi connectivity outage (both
	// directions) — the §6 mobility scenario. Zero values disable it.
	WiFiOutageStart, WiFiOutageEnd sim.Time

	// Chaos applies a declarative fault schedule (flaps, ramps, fades,
	// handover storms) to the run and produces a resilience report in
	// RunResult.Resilience. Deterministic: the schedule runs on virtual
	// time and the same seed reproduces it exactly.
	Chaos chaos.Schedule

	// Deadline caps the run's host wall-clock time (0 = none). It is an
	// execution policy, not part of the modeled experiment: a tripped
	// deadline marks the run failed, and the knob never appears in
	// exports or replay identity.
	Deadline time.Duration

	// Timeout caps the simulated duration (default 30 virtual
	// minutes).
	Timeout sim.Time

	// SelfCheck arms the internal/check invariant layer for this run:
	// every segment at both hosts is verified online and the stacks are
	// probed periodically. The run's wire behavior is unchanged — the
	// checker draws no randomness and mutates nothing — so results stay
	// byte-identical; violations land in RunResult.Violations.
	SelfCheck bool
}

// RunResult aggregates one download's measurements.
type RunResult struct {
	Completed    bool
	DownloadTime sim.Time // first SYN to last data byte (§3.3)

	// Server-side per-path sender statistics.
	WiFiBytesSent, CellBytesSent     int64
	WiFiDataPkts, CellDataPkts       uint64
	WiFiRetransPkts, CellRetransPkts uint64

	// Per-packet RTT samples (milliseconds), taken at the server as
	// tcptrace would (§3.3), grouped by path.
	WiFiRTTms, CellRTTms []float64

	// Client-side out-of-order delay samples (milliseconds), one per
	// delivered packet (§3.3), MPTCP only.
	OFOms []float64

	// Per-path delivered (cumulatively ACKed) bytes from the MPTCP
	// subflow delivery-rate telemetry, MPTCP only. Execution-side
	// diagnostics for the scheduler lab; excluded from campaign
	// CSV/JSON exports, whose schema is pinned by golden fixtures.
	WiFiBytesAcked, CellBytesAcked int64

	// Subflows observed at the server (1 for SP, 2 or 4 for MPTCP).
	Subflows int
	// Penalties counts receive-buffer penalization events (ablation).
	Penalties uint64

	// Events is the number of simulator events the run processed — the
	// denominator of paperbench's events/sec throughput line. It is not
	// exported in campaign CSV/JSON (it is a property of the simulator,
	// not of the modeled network).
	Events uint64

	// Violations counts protocol-invariant breaches detected when the
	// run was executed with SelfCheck; FirstViolation describes the
	// earliest one. Like Events they are execution metadata, excluded
	// from campaign exports.
	Violations     int
	FirstViolation string

	// FailReason is set when the harness killed the run (watchdog
	// deadline or livelock detection): one line, no stack. A failed run
	// also reports Completed=false. Execution metadata, excluded from
	// campaign exports.
	FailReason string

	// Resilience is the chaos monitor's report for runs with a Chaos
	// schedule (nil otherwise). Excluded from campaign exports — the
	// chaos CLI renders it directly.
	Resilience *chaos.Report
}

// CellShare reports the fraction of data bytes the server sent over
// cellular paths (Figures 3, 5, 7, 10).
func (r *RunResult) CellShare() float64 {
	total := r.WiFiBytesSent + r.CellBytesSent
	if total == 0 {
		return 0
	}
	return float64(r.CellBytesSent) / float64(total)
}

// WiFiLossRate reports retransmitted/sent data packets on WiFi paths,
// the paper's per-subflow loss metric (§3.3).
func (r *RunResult) WiFiLossRate() float64 {
	if r.WiFiDataPkts == 0 {
		return 0
	}
	return float64(r.WiFiRetransPkts) / float64(r.WiFiDataPkts)
}

// CellLossRate reports the cellular-path loss rate.
func (r *RunResult) CellLossRate() float64 {
	if r.CellDataPkts == 0 {
		return 0
	}
	return float64(r.CellRetransPkts) / float64(r.CellDataPkts)
}

// Validate rejects what Testbed.Run would panic on (an unknown controller),
// silently replace (an unknown scheduler) or time out on (no bytes).
func (rc RunConfig) Validate() error {
	if _, err := cc.New(defaultStr(rc.Controller, "coupled")); err != nil {
		return err
	}
	if err := mptcp.ValidateScheduler(rc.Scheduler); err != nil {
		return err
	}
	if rc.Size <= 0 {
		return fmt.Errorf("experiment: size %s must be positive", rc.Size)
	}
	return nil
}

func (rc RunConfig) stackConfig() mptcp.Config {
	ctrl, err := cc.New(defaultStr(rc.Controller, "coupled"))
	if err != nil {
		panic(err) // a caller skipped Validate
	}
	t := tcp.DefaultConfig()
	t.Controller = ctrl
	if rc.InfiniteSSThresh {
		t.SSThresh = 0
	} else if rc.SSThresh > 0 {
		t.SSThresh = rc.SSThresh
	}
	if rc.RcvBuf > 0 {
		t.RcvBuf = rc.RcvBuf
	}
	cfg := mptcp.ConfigOver(t)
	cfg.Controller = ctrl
	cfg.Scheduler = defaultStr(rc.Scheduler, "minrtt")
	cfg.SimultaneousSYN = rc.SimultaneousSYN
	cfg.Penalize = rc.Penalize
	return cfg
}

func defaultStr(s, d string) string {
	if s == "" {
		return d
	}
	return s
}

// Run performs one download on the testbed and collects its metrics.
// The testbed must be fresh: connections are never reused across
// measurements (as in the paper).
//
// A Testbed and everything it owns (simulator, network, endpoints,
// RNG streams) is confined to a single goroutine and Run must not be
// called concurrently on one testbed — but runs on *distinct*
// testbeds share no mutable state and may proceed in parallel, which
// is the invariant the campaign worker pool in runMatrix builds on.
func (tb *Testbed) Run(rc RunConfig) RunResult {
	timeout := rc.Timeout
	if timeout == 0 {
		timeout = 30 * sim.Minute
	}
	if rc.WiFiOutageEnd > rc.WiFiOutageStart {
		tb.Sim.At(rc.WiFiOutageStart, "wifi-outage-start", func() { tb.SetWiFiDown(true) })
		tb.Sim.At(rc.WiFiOutageEnd, "wifi-outage-end", func() { tb.SetWiFiDown(false) })
	}
	cfg := rc.stackConfig()
	stack := world.MPTCP
	tb.wifiRTTms, tb.cellRTTms, tb.ofoMs = tb.wifiRTTms[:0], tb.cellRTTms[:0], tb.ofoMs[:0]
	var res RunResult
	switch rc.Transport {
	case SPWiFi:
		stack, res.Subflows = world.TCPWiFi, 1
	case SPCell:
		stack, res.Subflows = world.TCPCell, 1
	}

	var (
		client     world.Peer
		serverConn *mptcp.Conn     // the accepted MPTCP connection (the last, if re-accepted)
		serverEPs  []*tcp.Endpoint // accepted single-path endpoints
		live       world.Live
	)
	if stack == world.MPTCP {
		live = func(yield func(cl *world.Client, client, server *mptcp.Conn)) {
			yield(tb.Clients[0], client.Conn, serverConn)
		}
	}
	mon := tb.ArmChaos(rc.Chaos, rc.Deadline, live)
	var ck *check.Checker
	if rc.SelfCheck {
		ck = check.Arm(tb.World, 50*sim.Millisecond)
	}

	fs := &web.FileServer{SizeFor: func(int) int { return int(rc.Size) }}
	tb.Serve(cfg, tb.RNG.Child("srv"), func(p world.Peer) *web.FileServer {
		if p.Conn != nil {
			serverConn = p.Conn
			p.Conn.OnSubflowUp = func(sf *mptcp.Subflow) { tb.attachRTTCollector(sf.EP) }
		} else {
			serverEPs = append(serverEPs, p.EP)
			tb.attachRTTCollector(p.EP)
		}
		if ck != nil {
			ck.Watch("server", p)
		}
		return fs
	})

	opts := mptcp.DialOpts{
		LocalAddrs:     []seg.Addr{tb.WiFiAddr, tb.CellAddr},
		JoinAdvertised: rc.Transport == MP4,
		Config:         cfg,
	}
	if rc.BackupCell {
		opts.Backup = []bool{false, true}
	}
	start := tb.Sim.Now()
	client = tb.Dial(tb.Clients[0], stack, opts, tb.RNG.Child("cli"))
	if ck != nil {
		ck.Watch("client", client)
	}
	getter := web.NewGetter(client.Stream())
	var tracked *chaos.Tracked
	if mon != nil {
		tracked = mon.Track("download", func() int64 { return getter.BytesReceived })
	}
	if client.Conn != nil {
		client.Conn.OnOFOSample = func(d sim.Time, subflowID int) {
			tb.ofoMs = append(tb.ofoMs, d.Milliseconds())
		}
	}
	var done sim.Time = -1
	getter.Get(int(rc.Size), func() {
		done = tb.Sim.Now()
		if tracked != nil {
			tracked.Done(true)
		}
		getter.Close()
		tb.Sim.Stop()
	})

	tb.Sim.RunUntil(start + timeout)
	res.Events = tb.Sim.Processed()
	// Only the abort error's first line is kept: failure reasons appear
	// in deterministic artifacts.
	if res.FailReason = tb.FailReason(); res.FailReason != "" && tracked != nil {
		tracked.Abort()
	}
	if mon != nil {
		res.Resilience = mon.Finish()
	}
	if ck != nil {
		if serverConn != nil {
			ck.CheckTransfer("download", serverConn, client.Conn, done >= 0)
		}
		ck.RunProbes()
		res.Violations, res.FirstViolation = ck.Summary()
	}
	res.WiFiRTTms, res.CellRTTms, res.OFOms = exactCopy(tb.wifiRTTms), exactCopy(tb.cellRTTms), exactCopy(tb.ofoMs)
	if done < 0 {
		return res
	}
	res.Completed = true
	res.DownloadTime = done - start
	for _, ep := range serverEPs {
		tb.accountSender(ep, &res)
	}
	if serverConn != nil {
		res.Subflows = len(serverConn.Subflows())
		res.Penalties = serverConn.Penalties
		for _, sf := range serverConn.Subflows() {
			tb.accountSender(sf.EP, &res)
			if tb.IsCell(sf.EP.Remote) {
				res.CellBytesAcked += sf.AckedBytes()
			} else {
				res.WiFiBytesAcked += sf.AckedBytes()
			}
		}
	}
	return res
}

// attachRTTCollector records the server's per-packet RTT samples,
// classified by the client interface they travel to.
func (tb *Testbed) attachRTTCollector(ep *tcp.Endpoint) {
	buf := &tb.wifiRTTms
	if tb.IsCell(ep.Remote) {
		buf = &tb.cellRTTms
	}
	ep.OnRTTSample = func(rtt sim.Time) { *buf = append(*buf, rtt.Milliseconds()) }
}

// exactCopy returns xs in an allocation of exactly its length, nil when
// empty: the result must not alias a buffer the next run overwrites.
func exactCopy(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	out := make([]float64, len(xs))
	copy(out, xs)
	return out
}

// accountSender folds one server-side endpoint's sender stats into the
// result.
func (tb *Testbed) accountSender(ep *tcp.Endpoint, res *RunResult) {
	st := &ep.Stats
	if tb.IsCell(ep.Remote) {
		res.CellBytesSent += st.BytesSent - st.BytesRetrans
		res.CellDataPkts += st.DataPktsSent
		res.CellRetransPkts += st.DataPktsRetrans
	} else {
		res.WiFiBytesSent += st.BytesSent - st.BytesRetrans
		res.WiFiDataPkts += st.DataPktsSent
		res.WiFiRetransPkts += st.DataPktsRetrans
	}
}

// Describe renders the run configuration like the paper's legends.
func (rc RunConfig) Describe() string {
	name := rc.Transport.String()
	ctrl := defaultStr(rc.Controller, "coupled")
	if rc.Transport == MP2 || rc.Transport == MP4 {
		name = fmt.Sprintf("%s (%s)", name, ctrl)
	}
	return fmt.Sprintf("%s %v", name, rc.Size)
}
