package trace

import (
	"io"

	"mptcplab/internal/netem"
	"mptcplab/internal/pcap"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
)

// PcapTap returns a host tap (tcpdump analog) that encodes every
// packet crossing the host's interfaces to a pcap stream. One scratch
// buffer is reused across packets (the writer copies bytes out before
// returning), so steady-state capture does not allocate per frame.
func PcapTap(w *pcap.Writer) netem.Tap {
	var scratch []byte
	return func(dir netem.Direction, at sim.Time, s *seg.Segment) {
		// Both directions are captured, as tcpdump would; the frame
		// itself identifies direction via its addresses.
		_ = dir
		scratch = seg.AppendEncode(scratch[:0], s)
		_ = w.WritePacket(pcap.Packet{TS: int64(at), Data: scratch})
	}
}

// MemoryCapture collects packets in memory — the fast path for
// in-process trace analysis without an encode/decode round trip. A host
// tap hands over the live segment, so the capture keeps a clone.
type MemoryCapture struct {
	Packets []*Packet
}

// Tap returns the netem.Tap feeding this capture.
func (m *MemoryCapture) Tap() netem.Tap {
	return func(dir netem.Direction, at sim.Time, s *seg.Segment) {
		_ = dir
		m.Packets = append(m.Packets, &Packet{TS: int64(at), Seg: s.Clone()})
	}
}

// Analyze runs a fresh Analyzer over the captured packets.
func (m *MemoryCapture) Analyze() *Analyzer {
	a := NewAnalyzer()
	for _, p := range m.Packets {
		a.Add(p)
	}
	return a
}

// AnalyzePcap is the one-call path from a capture file to an analysis.
func AnalyzePcap(r io.Reader) (*Analyzer, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, err
	}
	a := NewAnalyzer()
	if err := a.AddAll(NewPacketSource(pr)); err != nil {
		return nil, err
	}
	return a, nil
}
