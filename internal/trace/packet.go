// Package trace is mptcplab's tcptrace: it reads captured frames as
// parsed segments and recomputes the paper's metrics — per-packet RTT,
// retransmission-based loss rate, and MPTCP data-level out-of-order
// delay — purely from the wire, independent of the protocol stack's
// own counters. Tests cross-validate the two. Flow, Endpoint and
// PacketSource follow gopacket's naming.
package trace

import (
	"io"

	"mptcplab/internal/pcap"
	"mptcplab/internal/seg"
)

// Packet is one captured frame: the parsed header and when it was seen.
type Packet struct {
	TS  int64 // capture timestamp, ns
	Seg *seg.Segment
}

// Flow returns the packet's transport flow (src->dst).
func (p *Packet) Flow() Flow { return Flow{Src: p.Seg.Src, Dst: p.Seg.Dst} }

// NewPacket decodes raw frame bytes (IP header first).
func NewPacket(ts int64, data []byte) (*Packet, error) {
	s, err := seg.Decode(data)
	if err != nil {
		return nil, err
	}
	return &Packet{TS: ts, Seg: s}, nil
}

// Endpoint is one side of a flow (gopacket's Endpoint, specialized to
// IPv4+port): the segment's own address type.
type Endpoint = seg.Addr

// Flow is a directed (src, dst) endpoint pair.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse flips the flow's direction.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

// String renders "src->dst".
func (f Flow) String() string { return f.Src.String() + "->" + f.Dst.String() }

// PacketSource iterates packets from a pcap stream, in the style of
// gopacket.PacketSource.
type PacketSource struct {
	r *pcap.Reader
	// DecodeErrors counts frames that failed to decode (skipped).
	DecodeErrors uint64
}

// NewPacketSource wraps a pcap reader.
func NewPacketSource(r *pcap.Reader) *PacketSource { return &PacketSource{r: r} }

// Next returns the next decodable packet, or io.EOF.
func (ps *PacketSource) Next() (*Packet, error) {
	for {
		fr, err := ps.r.Next()
		if err != nil {
			return nil, err
		}
		p, err := NewPacket(fr.TS, fr.Data)
		if err != nil {
			ps.DecodeErrors++
			continue
		}
		return p, nil
	}
}

// ReadAll drains a source into a slice.
func (ps *PacketSource) ReadAll() ([]*Packet, error) {
	var out []*Packet
	for {
		p, err := ps.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
