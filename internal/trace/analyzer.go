package trace

import (
	"fmt"
	"io"
	"sort"

	"mptcplab/internal/seg"
	"mptcplab/internal/stats"
)

// FlowStats is the tcptrace-style per-direction summary of one TCP
// flow.
type FlowStats struct {
	Flow Flow

	DataPkts    uint64
	RetransPkts uint64
	Bytes       int64
	Acks        uint64

	// RTTms holds one sample per acknowledged, never-retransmitted
	// data packet: the time from the packet leaving this vantage point
	// to the ACK covering it arriving back — the paper's RTT metric
	// (§3.3), which matches tcptrace's.
	RTTms []float64

	FirstTS, LastTS int64

	// Per-flow open ranges awaiting ACK.
	outstanding []txRange
	// covered tracks sequence ranges already seen, for retransmission
	// detection.
	covered []seg.SACKBlock
}

type txRange struct {
	end   uint32
	ts    int64
	valid bool // false once retransmitted (Karn)
}

// LossRate reports retransmitted / sent data packets.
func (f *FlowStats) LossRate() float64 {
	if f.DataPkts == 0 {
		return 0
	}
	return float64(f.RetransPkts) / float64(f.DataPkts)
}

// Duration reports the flow's observed lifetime in seconds.
func (f *FlowStats) Duration() float64 {
	return float64(f.LastTS-f.FirstTS) / 1e9
}

// Analyzer reconstructs per-flow metrics from a packet stream captured
// at one vantage point (the paper captures at both ends and analyzes
// each; do the same here with two Analyzers).
//
// MPTCP data-level reordering is reconstructed from DSS options under
// the assumption that the capture contains a single MPTCP connection,
// which matches the paper's one-download-per-measurement method.
type Analyzer struct {
	flows map[Flow]*FlowStats

	// Data-level reassembly for OFO delay (receiver vantage point),
	// pooling all DSS mappings — exact when the capture holds one
	// connection, as the paper's per-measurement captures do.
	dataRcvNxt uint64
	dataSeen   bool
	ofoBlocks  []ofoBlock
	ofoSamples []float64

	// mptcp groups subflows into connections by token for captures
	// holding several MPTCP connections; see Connections.
	mptcp *mptcpTracker
}

type ofoBlock struct {
	start, end uint64
	ts         int64
}

// NewAnalyzer returns an empty analyzer.
func NewAnalyzer() *Analyzer {
	return &Analyzer{
		flows: make(map[Flow]*FlowStats),
		mptcp: newMPTCPTracker(),
	}
}

// Add processes one packet.
func (a *Analyzer) Add(p *Packet) {
	s := p.Seg
	f := p.Flow()
	fs := a.flow(f)
	if fs.FirstTS == 0 {
		fs.FirstTS = p.TS
	}
	fs.LastTS = p.TS

	if s.PayloadLen > 0 {
		a.addData(fs, p)
	}
	if s.Flags.Has(seg.ACK) && !s.Flags.Has(seg.SYN) {
		a.addAck(f.Reverse(), p)
	}
	cs := a.mptcp.observe(p)
	if d := s.DSS; s.Has(seg.OptDSS) && d.HasMap && s.PayloadLen > 0 {
		a.addDSS(p.TS, d.DataSeq, d.DataSeq+uint64(s.PayloadLen))
		if cs != nil {
			cs.addDSS(f.Src, p.TS, d.DataSeq, d.DataSeq+uint64(s.PayloadLen))
		}
	}
}

func (a *Analyzer) flow(f Flow) *FlowStats {
	fs, ok := a.flows[f]
	if !ok {
		fs = &FlowStats{Flow: f}
		a.flows[f] = fs
	}
	return fs
}

// addData records a data transmission, detecting retransmissions as
// tcptrace does: payload covering sequence space already seen.
func (a *Analyzer) addData(fs *FlowStats, p *Packet) {
	fs.DataPkts++
	fs.Bytes += int64(p.Seg.PayloadLen)
	start, end := p.Seg.Seq, p.Seg.Seq+uint32(p.Seg.PayloadLen)

	retrans := false
	for _, c := range fs.covered {
		if seg.SeqGEQ(start, c.Start) && seg.SeqLEQ(end, c.End) {
			retrans = true
			break
		}
	}
	if retrans {
		fs.RetransPkts++
		// Karn: invalidate the pending RTT sample for this range.
		for i := range fs.outstanding {
			if fs.outstanding[i].end == end {
				fs.outstanding[i].valid = false
			}
		}
		return
	}
	fs.covered = mergeBlock(fs.covered, seg.SACKBlock{Start: start, End: end})
	fs.outstanding = append(fs.outstanding, txRange{end: end, ts: p.TS, valid: true})
}

// addAck matches an arriving ACK against outstanding transmissions of
// the reverse flow.
func (a *Analyzer) addAck(dataFlow Flow, p *Packet) {
	fs, ok := a.flows[dataFlow]
	if !ok {
		return
	}
	fs.Acks++
	keep := fs.outstanding[:0]
	for _, r := range fs.outstanding {
		if seg.SeqGEQ(p.Seg.Ack, r.end) {
			if r.valid {
				fs.RTTms = append(fs.RTTms, float64(p.TS-r.ts)/1e6)
			}
			continue
		}
		keep = append(keep, r)
	}
	fs.outstanding = keep
}

// addDSS reconstructs connection-level reordering from the DSS
// mapping stream: out-of-order delay is the residence time of data in
// the (virtual) receive buffer before its data sequence is in order.
func (a *Analyzer) addDSS(ts int64, start, end uint64) {
	if !a.dataSeen {
		a.dataSeen = true
		a.dataRcvNxt = start
	}
	if end <= a.dataRcvNxt {
		return // duplicate at data level
	}
	if start < a.dataRcvNxt {
		start = a.dataRcvNxt
	}
	if start == a.dataRcvNxt {
		a.ofoSamples = append(a.ofoSamples, 0)
		a.dataRcvNxt = end
		a.drainOFO(ts)
		return
	}
	for _, b := range a.ofoBlocks {
		if b.start <= start && end <= b.end {
			return
		}
	}
	a.ofoBlocks = append(a.ofoBlocks, ofoBlock{start: start, end: end, ts: ts})
	sort.Slice(a.ofoBlocks, func(i, j int) bool { return a.ofoBlocks[i].start < a.ofoBlocks[j].start })
}

func (a *Analyzer) drainOFO(now int64) {
	i := 0
	for ; i < len(a.ofoBlocks); i++ {
		b := a.ofoBlocks[i]
		if b.start > a.dataRcvNxt {
			break
		}
		if b.end > a.dataRcvNxt {
			a.dataRcvNxt = b.end
		}
		a.ofoSamples = append(a.ofoSamples, float64(now-b.ts)/1e6)
	}
	a.ofoBlocks = a.ofoBlocks[i:]
}

// Flows lists per-flow stats, largest data volume first.
func (a *Analyzer) Flows() []*FlowStats {
	out := make([]*FlowStats, 0, len(a.flows))
	for _, fs := range a.flows {
		out = append(out, fs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow.String() < out[j].Flow.String()
	})
	return out
}

// FlowByEndpoints looks up a flow's stats, or nil.
func (a *Analyzer) FlowByEndpoints(f Flow) *FlowStats { return a.flows[f] }

// OFOms returns the reconstructed out-of-order delay samples
// (milliseconds, one per data packet).
func (a *Analyzer) OFOms() []float64 { return a.ofoSamples }

// AddAll consumes an entire packet source.
func (a *Analyzer) AddAll(ps *PacketSource) error {
	for {
		p, err := ps.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		a.Add(p)
	}
}

// WriteSummary renders a tcptrace-like report.
func (a *Analyzer) WriteSummary(w io.Writer) {
	for _, fs := range a.Flows() {
		if fs.DataPkts == 0 && fs.Acks == 0 {
			continue
		}
		fmt.Fprintf(w, "flow %v\n", fs.Flow)
		fmt.Fprintf(w, "  data pkts: %-8d retransmits: %-6d (loss %.2f%%)  bytes: %d\n",
			fs.DataPkts, fs.RetransPkts, fs.LossRate()*100, fs.Bytes)
		if len(fs.RTTms) > 0 {
			s := stats.New()
			s.AddAll(fs.RTTms)
			fmt.Fprintf(w, "  rtt: n=%d min=%.1fms median=%.1fms mean=%.1fms max=%.1fms\n",
				s.N(), s.Min(), s.Median(), s.Mean(), s.Max())
		}
		fmt.Fprintf(w, "  duration: %.3fs\n", fs.Duration())
	}
	for _, c := range a.Connections() {
		fmt.Fprintf(w, "mptcp connection %d: %d subflow(s)\n", c.ID, len(c.Subflows))
		for _, f := range c.Subflows {
			fmt.Fprintf(w, "  subflow %v\n", f)
		}
		if len(c.OFOms) > 0 {
			s := stats.New()
			s.AddAll(c.OFOms)
			fmt.Fprintf(w, "  out-of-order delay: n=%d in-order=%.1f%% mean=%.1fms p95=%.1fms max=%.1fms\n",
				s.N(), 100*(1-s.FractionAbove(0)), s.Mean(), s.Quantile(0.95), s.Max())
		}
	}
}

// mergeBlock inserts a range into a sorted disjoint set.
func mergeBlock(blocks []seg.SACKBlock, nb seg.SACKBlock) []seg.SACKBlock {
	blocks = append(blocks, nb)
	sort.Slice(blocks, func(i, j int) bool { return seg.SeqLT(blocks[i].Start, blocks[j].Start) })
	out := blocks[:1]
	for _, b := range blocks[1:] {
		last := &out[len(out)-1]
		if seg.SeqLEQ(b.Start, last.End) {
			if seg.SeqGT(b.End, last.End) {
				last.End = b.End
			}
		} else {
			out = append(out, b)
		}
	}
	return out
}
