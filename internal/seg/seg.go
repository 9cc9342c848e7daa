// Package seg defines mptcplab's wire model: TCP segments with real
// IPv4/TCP binary encodings, including the MPTCP option (kind 30) and
// its MP_CAPABLE / MP_JOIN / DSS / ADD_ADDR subtypes.
//
// The simulator moves *Segment values between endpoints directly (no
// serialization on the hot path), but every segment can be encoded to
// genuine wire bytes for pcap capture and decoded back by the trace
// analyzer, mirroring the paper's tcpdump/tcptrace methodology.
package seg

import (
	"fmt"
	"math/bits"
	"net/netip"

	"mptcplab/internal/sim"
)

// Addr is an IPv4 endpoint address (host + TCP port).
type Addr struct {
	IP   [4]byte
	Port uint16
}

// MakeAddr builds an Addr from a dotted-quad string and port. It
// panics on a malformed literal; addresses in mptcplab are static
// testbed configuration, so a bad one is a programming error.
func MakeAddr(ip string, port uint16) Addr {
	a, err := netip.ParseAddr(ip)
	if err != nil || !a.Is4() {
		panic(fmt.Sprintf("seg: bad IPv4 literal %q", ip))
	}
	return Addr{IP: a.As4(), Port: port}
}

// String renders "a.b.c.d:port".
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d:%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3], a.Port)
}

// IPString renders just the dotted quad.
func (a Addr) IPString() string {
	return fmt.Sprintf("%d.%d.%d.%d", a.IP[0], a.IP[1], a.IP[2], a.IP[3])
}

// Flags is the TCP flag byte.
type Flags uint8

// TCP control flags.
const (
	FIN Flags = 1 << 0
	SYN Flags = 1 << 1
	RST Flags = 1 << 2
	PSH Flags = 1 << 3
	ACK Flags = 1 << 4
)

// Has reports whether all flags in f2 are set in f.
func (f Flags) Has(f2 Flags) bool { return f&f2 == f2 }

// String renders e.g. "SYN|ACK".
func (f Flags) String() string {
	s := ""
	add := func(b Flags, n string) {
		if f&b != 0 {
			if s != "" {
				s += "|"
			}
			s += n
		}
	}
	add(SYN, "SYN")
	add(ACK, "ACK")
	add(FIN, "FIN")
	add(RST, "RST")
	add(PSH, "PSH")
	if s == "" {
		s = "-"
	}
	return s
}

// Segment is one TCP segment in flight: a parsed header. PayloadLen
// stands in for the application bytes (contents are synthesized on
// capture); everything else is genuine TCP header state.
//
// Options live in one typed slot per kind, valid only while the kind's
// bit is set in the presence mask: set them with the Add methods, test
// with Has, then read the field. A segment holds no pointer, slice or
// interface, so pooled segments are invisible to the garbage collector,
// a copy is a clone, and two segments compare with ==.
type Segment struct {
	Src, Dst Addr
	Seq, Ack uint32
	Flags    Flags
	Window   uint32 // advertised receive window, bytes (post-scaling)

	PayloadLen int

	// Option slots, in wire order (SACK-permitted is its bit alone).
	opts       OptSet // which slots are present
	MSS        MSSOption
	WScale     WindowScaleOption
	nsack      uint8
	sack       [maxSACKBlocks]SACKBlock
	Timestamps TimestampsOption
	MPCapable  MPCapableOption
	MPJoin     MPJoinOption
	DSS        DSSOption
	AddAddr    AddAddrOption
	RemoveAddr RemoveAddrOption
	FastClose  FastCloseOption

	// Simulation bookkeeping, not on the wire.
	SentAt     sim.Time // stamped when the sender hands it to the NIC
	Retransmit bool     // true if this carries previously sent data
	TxSeq      uint64   // per-path transmission serial, set by netem

	pooled bool   // currently on a Pool free list (double-release guard)
	gen    uint32 // incremented on each Pool.Put; detects stale handles
}

// Gen reports the segment's pool generation. The counter advances every
// time the segment is released to a Pool, so a holder that records the
// generation at hand-off can later detect that the segment it still
// points to has been recycled into a different packet.
func (s *Segment) Gen() uint32 { return s.gen }

// Pooled reports whether the segment currently sits on a Pool free
// list. A true result means any outstanding pointer to it is stale.
func (s *Segment) Pooled() bool { return s.pooled }

// maxSACKBlocks bounds a segment's SACK storage; RFC 2018's 40-byte
// option budget caps a real header at four blocks anyway.
const maxSACKBlocks = 4

// Len reports the payload length in bytes.
func (s *Segment) Len() int { return s.PayloadLen }

// WireSize reports the on-the-wire size in bytes: IPv4 header, TCP
// header with options (padded to a 4-byte boundary), and payload.
// Link-level queueing and transmission delay are computed from this.
func (s *Segment) WireSize() int {
	_, optLen := s.wireOptions()
	return ipv4HeaderLen + tcpBaseHeaderLen + optLen + s.PayloadLen
}

// End reports the sequence number after this segment's data, counting
// SYN and FIN as one unit each, per TCP sequence-space rules.
func (s *Segment) End() uint32 {
	n := uint32(s.PayloadLen)
	if s.Flags.Has(SYN) {
		n++
	}
	if s.Flags.Has(FIN) {
		n++
	}
	return s.Seq + n
}

// Has reports whether the segment carries any of the options in o.
func (s *Segment) Has(o OptSet) bool { return s.opts&o != 0 }

// The Add methods attach one option each and return the segment for
// chaining. A segment carries at most one option per kind: adding a
// kind again overwrites it.

// AddMSS attaches an MSS option.
func (s *Segment) AddMSS(o MSSOption) *Segment {
	s.MSS, s.opts = o, s.opts|OptMSS
	return s
}

// AddWindowScale attaches a window-scale option.
func (s *Segment) AddWindowScale(o WindowScaleOption) *Segment {
	s.WScale, s.opts = o, s.opts|OptWindowScale
	return s
}

// AddSACKPermitted attaches the SACK-permitted option.
func (s *Segment) AddSACKPermitted() *Segment {
	s.opts |= OptSACKPermitted
	return s
}

// AddSACK attaches a SACK option, copying at most maxSACKBlocks blocks
// into the segment.
func (s *Segment) AddSACK(blocks []SACKBlock) *Segment {
	s.sack = [maxSACKBlocks]SACKBlock{}
	s.nsack = uint8(copy(s.sack[:], blocks))
	s.opts |= OptSACK
	return s
}

// SACK returns the segment's SACK blocks, or nil. The slice points into
// the segment: callers must not retain it past the segment's lifetime.
func (s *Segment) SACK() []SACKBlock {
	if !s.Has(OptSACK) {
		return nil
	}
	return s.sack[:s.nsack]
}

// AddTimestamps attaches a timestamps option.
func (s *Segment) AddTimestamps(o TimestampsOption) *Segment {
	s.Timestamps, s.opts = o, s.opts|OptTimestamps
	return s
}

// AddMPCapable attaches an MP_CAPABLE option.
func (s *Segment) AddMPCapable(o MPCapableOption) *Segment {
	s.MPCapable, s.opts = o, s.opts|OptMPCapable
	return s
}

// AddMPJoin attaches an MP_JOIN option.
func (s *Segment) AddMPJoin(o MPJoinOption) *Segment {
	s.MPJoin, s.opts = o, s.opts|OptMPJoin
	return s
}

// AddDSS attaches a DSS option.
func (s *Segment) AddDSS(o DSSOption) *Segment {
	s.DSS, s.opts = o, s.opts|OptDSS
	return s
}

// AddAddAddr attaches an ADD_ADDR option.
func (s *Segment) AddAddAddr(o AddAddrOption) *Segment {
	s.AddAddr, s.opts = o, s.opts|OptAddAddr
	return s
}

// AddRemoveAddr attaches a REMOVE_ADDR option.
func (s *Segment) AddRemoveAddr(o RemoveAddrOption) *Segment {
	s.RemoveAddr, s.opts = o, s.opts|OptRemoveAddr
	return s
}

// AddFastClose attaches an MP_FASTCLOSE option.
func (s *Segment) AddFastClose(o FastCloseOption) *Segment {
	s.FastClose, s.opts = o, s.opts|OptFastClose
	return s
}

// String renders a compact one-line summary for logs and tests.
func (s *Segment) String() string {
	extra := ""
	if s.Retransmit {
		extra = " RTX"
	}
	for m := s.opts & OptMPTCP; m != 0; m &= m - 1 {
		extra += " " + optNames[bits.TrailingZeros16(uint16(m))]
	}
	return fmt.Sprintf("%v>%v %s seq=%d ack=%d len=%d win=%d%s",
		s.Src, s.Dst, s.Flags, s.Seq, s.Ack, s.PayloadLen, s.Window, extra)
}

// Clone returns a copy of the segment. The netem layer clones segments
// at fan-out points such as capture taps so later mutation — including
// release back to a Pool — cannot corrupt a recorded trace.
func (s *Segment) Clone() *Segment {
	c := *s
	c.pooled = false
	return &c
}

// SeqLT reports a < b in 32-bit TCP sequence arithmetic.
func SeqLT(a, b uint32) bool { return int32(a-b) < 0 }

// SeqLEQ reports a <= b in sequence arithmetic.
func SeqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// SeqGT reports a > b in sequence arithmetic.
func SeqGT(a, b uint32) bool { return int32(a-b) > 0 }

// SeqGEQ reports a >= b in sequence arithmetic.
func SeqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// SeqMax returns the later of a and b in sequence arithmetic.
func SeqMax(a, b uint32) uint32 {
	if SeqGT(a, b) {
		return a
	}
	return b
}

// SeqMin returns the earlier of a and b in sequence arithmetic.
func SeqMin(a, b uint32) uint32 {
	if SeqLT(a, b) {
		return a
	}
	return b
}

// DSeqLT reports a < b in 64-bit MPTCP data-sequence arithmetic.
func DSeqLT(a, b uint64) bool { return int64(a-b) < 0 }

// DSeqGEQ reports a >= b in data-sequence arithmetic.
func DSeqGEQ(a, b uint64) bool { return int64(a-b) >= 0 }
