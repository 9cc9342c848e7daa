package seg

import (
	"encoding/binary"
	"fmt"
)

// OptionKind is a TCP option kind byte.
type OptionKind uint8

// TCP option kinds used by mptcplab (IANA assignments).
const (
	KindEOL           OptionKind = 0
	KindNOP           OptionKind = 1
	KindMSS           OptionKind = 2
	KindWindowScale   OptionKind = 3
	KindSACKPermitted OptionKind = 4
	KindSACK          OptionKind = 5
	KindTimestamps    OptionKind = 8
	KindMPTCP         OptionKind = 30
)

// MPTCPSubtype selects among the MPTCP option sub-messages.
type MPTCPSubtype uint8

// MPTCP option subtypes (RFC 6824 values).
const (
	SubMPCapable  MPTCPSubtype = 0x0
	SubMPJoin     MPTCPSubtype = 0x1
	SubDSS        MPTCPSubtype = 0x2
	SubAddAddr    MPTCPSubtype = 0x3
	SubRemoveAddr MPTCPSubtype = 0x4
	SubFastClose  MPTCPSubtype = 0x7
)

// OptSet is a set of option kinds: one bit per kind a Segment can
// carry, in the order the options are laid out on the wire. The order
// is the one the stack has always built headers in — TCP's own options,
// then the handshake or DSS option, then address and abort signaling —
// and it decides which options survive the 40-byte budget.
type OptSet uint16

// The option kinds, in wire order.
const (
	OptMSS OptSet = 1 << iota
	OptWindowScale
	OptSACKPermitted
	OptSACK
	OptTimestamps
	OptMPCapable
	OptMPJoin
	OptDSS
	OptAddAddr
	OptRemoveAddr
	OptFastClose

	// OptMPTCP is every MPTCP (kind 30) subtype.
	OptMPTCP = OptMPCapable | OptMPJoin | OptDSS | OptAddAddr | OptRemoveAddr | OptFastClose
)

// optNames is indexed by an OptSet bit's position.
var optNames = [...]string{"MSS", "WSCALE", "SACK_PERMITTED", "SACK", "TIMESTAMPS",
	"MP_CAPABLE", "MP_JOIN", "DSS", "ADD_ADDR", "REMOVE_ADDR", "MP_FASTCLOSE"}

// MSSOption advertises the maximum segment size on a SYN.
type MSSOption struct{ MSS uint16 }

// WindowScaleOption advertises a window shift count on a SYN.
type WindowScaleOption struct{ Shift uint8 }

// SACKBlock is one [Start,End) selectively acknowledged range.
type SACKBlock struct{ Start, End uint32 }

// Contains reports whether sequence s lies within the block.
func (b SACKBlock) Contains(s uint32) bool {
	return SeqLEQ(b.Start, s) && SeqLT(s, b.End)
}

// TimestampsOption carries TSval/TSecr (RFC 7323).
type TimestampsOption struct{ Val, Ecr uint32 }

// MPCapableOption starts an MPTCP connection on the first subflow's
// SYN / SYN-ACK, carrying each side's 64-bit key.
type MPCapableOption struct {
	Key uint64
}

// MPJoinOption attaches a new subflow to an existing connection. Token
// is the receiver's token (a hash of its key); AddrID identifies the
// advertised address being joined from/to; Backup is RFC 6824's B bit,
// asking the peer to use this subflow only when regular paths fail.
type MPJoinOption struct {
	Token  uint32
	Nonce  uint32
	AddrID uint8
	Backup bool
}

// DSSOption is the MPTCP data-sequence-signal mapping: it binds a run
// of subflow sequence space to connection-level (data) sequence space
// and acknowledges connection-level data.
type DSSOption struct {
	DataSeq    uint64 // data sequence number of the first payload byte
	SubflowSeq uint32 // corresponding subflow-relative sequence number
	Length     uint16 // bytes covered by this mapping
	DataAck    uint64 // cumulative data-level ACK
	HasMap     bool   // mapping fields valid
	HasAck     bool   // DataAck valid
	DataFin    bool   // connection-level FIN
}

// DSS flag bits (RFC 6824 §3.3.1): A and M say the data ACK and the
// mapping are present, a and m that the ACK and the data sequence
// number are 8 octets wide instead of 4.
const (
	dssAckPresent = 0x01
	dssAck8       = 0x02
	dssMapPresent = 0x04
	dssMap8       = 0x08
	dssDataFin    = 0x10
)

// AddAddrOption advertises an additional address of the sender.
type AddAddrOption struct {
	AddrID uint8
	Addr   Addr
}

// RemoveAddrOption withdraws a previously advertised (or implicit)
// address: the peer should close subflows using it (RFC 6824 §3.4.2).
// The address itself rides along so simulated peers — which never saw
// an explicit AddrID for implicit addresses — can match subflows.
type RemoveAddrOption struct {
	AddrID uint8
	Addr   Addr
}

// FastCloseOption aborts the whole MPTCP connection at once (RFC 6824
// §3.5), carrying the peer's key as authentication.
type FastCloseOption struct {
	Key uint64
}

// maxOptionBytes is the TCP header option budget: the 4-bit data
// offset allows at most a 60-byte header, i.e. 40 bytes of options.
const maxOptionBytes = 40

// optionLen is option o's encoded length, kind and length bytes
// included.
func (s *Segment) optionLen(o OptSet) int {
	switch o {
	case OptMSS:
		return 4
	case OptWindowScale:
		return 3
	case OptSACKPermitted:
		return 2
	case OptSACK:
		return 2 + 8*int(s.nsack)
	case OptTimestamps, OptAddAddr, OptRemoveAddr:
		return 10
	case OptDSS:
		n := 4
		if s.DSS.HasAck {
			n += 8
		}
		if s.DSS.HasMap {
			n += 8 + 4 + 2 + 2 // dseq, sseq, len, checksum(placeholder)
		}
		return n
	default: // MP_CAPABLE, MP_JOIN, MP_FASTCLOSE
		return 12
	}
}

// wireOptions is the header budget rule: it reports which of the
// segment's options go on the wire — taken in wire order, greedily
// skipping any that would overflow the 40 bytes, the same rationing
// real MPTCP stacks perform when SACK blocks and DSS compete for header
// room — and their length with padding to a 32-bit boundary. WireSize
// and the encoder both ask here, so link timing and captured bytes
// cannot disagree.
func (s *Segment) wireOptions() (fit OptSet, n int) {
	for m := s.opts; m != 0; m &= m - 1 {
		o := m & -m
		if w := s.optionLen(o); n+w <= maxOptionBytes {
			fit |= o
			n += w
		}
	}
	return fit, (n + 3) &^ 3
}

// encodeOptions appends the options in fit, then NOP padding to a
// 32-bit boundary as real stacks do.
func (s *Segment) encodeOptions(d []byte, fit OptSet) []byte {
	start := len(d)
	for m := fit; m != 0; m &= m - 1 {
		o := m & -m
		if o&OptMPTCP != 0 {
			d = append(d, byte(KindMPTCP), byte(s.optionLen(o)))
		}
		switch o {
		case OptMSS:
			d = append(d, byte(KindMSS), 4, byte(s.MSS.MSS>>8), byte(s.MSS.MSS))
		case OptWindowScale:
			d = append(d, byte(KindWindowScale), 3, s.WScale.Shift)
		case OptSACKPermitted:
			d = append(d, byte(KindSACKPermitted), 2)
		case OptSACK:
			d = append(d, byte(KindSACK), byte(2+8*s.nsack))
			for _, b := range s.sack[:s.nsack] {
				d = binary.BigEndian.AppendUint32(d, b.Start)
				d = binary.BigEndian.AppendUint32(d, b.End)
			}
		case OptTimestamps:
			d = append(d, byte(KindTimestamps), 10)
			d = binary.BigEndian.AppendUint32(d, s.Timestamps.Val)
			d = binary.BigEndian.AppendUint32(d, s.Timestamps.Ecr)
		case OptMPCapable:
			d = append(d, byte(SubMPCapable)<<4, 0x01 /* checksum off, ver 1 flags */)
			d = binary.BigEndian.AppendUint64(d, s.MPCapable.Key)
		case OptMPJoin:
			b := byte(SubMPJoin) << 4
			if s.MPJoin.Backup {
				b |= 0x1
			}
			d = append(d, b, s.MPJoin.AddrID)
			d = binary.BigEndian.AppendUint32(d, s.MPJoin.Token)
			d = binary.BigEndian.AppendUint32(d, s.MPJoin.Nonce)
		case OptDSS:
			d = encodeDSS(d, s.DSS)
		case OptAddAddr:
			d = append(d, byte(SubAddAddr)<<4|0x4 /* IPv4 */, s.AddAddr.AddrID)
			d = appendAddr(d, s.AddAddr.Addr)
		case OptRemoveAddr:
			d = append(d, byte(SubRemoveAddr)<<4, s.RemoveAddr.AddrID)
			d = appendAddr(d, s.RemoveAddr.Addr)
		case OptFastClose:
			d = append(d, byte(SubFastClose)<<4, 0)
			d = binary.BigEndian.AppendUint64(d, s.FastClose.Key)
		}
	}
	for (len(d)-start)%4 != 0 {
		d = append(d, byte(KindNOP))
	}
	return d
}

// encodeDSS appends a DSS body after its kind and length bytes, always
// in the 8-octet forms.
func encodeDSS(d []byte, o DSSOption) []byte {
	flags := byte(0)
	if o.HasAck {
		flags |= dssAckPresent | dssAck8
	}
	if o.HasMap {
		flags |= dssMapPresent | dssMap8
	}
	if o.DataFin {
		flags |= dssDataFin
	}
	d = append(d, byte(SubDSS)<<4, flags)
	if o.HasAck {
		d = binary.BigEndian.AppendUint64(d, o.DataAck)
	}
	if o.HasMap {
		d = binary.BigEndian.AppendUint64(d, o.DataSeq)
		d = binary.BigEndian.AppendUint32(d, o.SubflowSeq)
		d = binary.BigEndian.AppendUint16(d, o.Length)
		d = append(d, 0, 0) // checksum not used (negotiated off)
	}
	return d
}

func appendAddr(d []byte, a Addr) []byte {
	d = append(d, a.IP[:]...)
	return binary.BigEndian.AppendUint16(d, a.Port)
}

// decodeOptions parses the options region of a TCP header into s. Of a
// repeated kind the first occurrence is kept; unknown kinds are
// skipped, as a real stack would.
func decodeOptions(b []byte, s *Segment) error {
	for len(b) > 0 {
		kind := OptionKind(b[0])
		switch kind {
		case KindEOL:
			return nil
		case KindNOP:
			b = b[1:]
			continue
		}
		if len(b) < 2 {
			return fmt.Errorf("seg: truncated option kind %d", kind)
		}
		olen := int(b[1])
		if olen < 2 || olen > len(b) {
			return fmt.Errorf("seg: bad option length %d for kind %d", olen, kind)
		}
		first := *s
		if err := decodeOption(kind, b[:olen], s); err != nil {
			return err
		}
		if s.opts == first.opts {
			*s = first // a repeat: the first occurrence stands
		}
		b = b[olen:]
	}
	return nil
}

func decodeOption(kind OptionKind, b []byte, s *Segment) error {
	switch kind {
	case KindMSS:
		if len(b) != 4 {
			return fmt.Errorf("seg: MSS option length %d", len(b))
		}
		s.AddMSS(MSSOption{MSS: binary.BigEndian.Uint16(b[2:])})
	case KindWindowScale:
		if len(b) != 3 {
			return fmt.Errorf("seg: wscale option length %d", len(b))
		}
		s.AddWindowScale(WindowScaleOption{Shift: b[2]})
	case KindSACKPermitted:
		s.AddSACKPermitted()
	case KindSACK:
		n := (len(b) - 2) / 8
		if (len(b)-2)%8 != 0 || n > maxSACKBlocks {
			return fmt.Errorf("seg: SACK option length %d", len(b))
		}
		var blocks [maxSACKBlocks]SACKBlock
		for i := 0; i < n; i++ {
			blocks[i].Start = binary.BigEndian.Uint32(b[2+8*i:])
			blocks[i].End = binary.BigEndian.Uint32(b[6+8*i:])
		}
		s.AddSACK(blocks[:n])
	case KindTimestamps:
		if len(b) != 10 {
			return fmt.Errorf("seg: timestamps option length %d", len(b))
		}
		s.AddTimestamps(TimestampsOption{
			Val: binary.BigEndian.Uint32(b[2:]),
			Ecr: binary.BigEndian.Uint32(b[6:]),
		})
	case KindMPTCP:
		return decodeMPTCP(b, s)
	}
	return nil
}

func decodeMPTCP(b []byte, s *Segment) error {
	if len(b) < 3 {
		return fmt.Errorf("seg: truncated MPTCP option")
	}
	sub := MPTCPSubtype(b[2] >> 4)
	switch sub {
	case SubMPCapable:
		// 12 octets on SYN and SYN-ACK; the third ACK of a v0 handshake
		// (RFC 6824 §3.1) echoes the receiver's key after the sender's,
		// 20 octets. Either way the sender's key is the one kept.
		if len(b) != 12 && len(b) != 20 {
			return fmt.Errorf("seg: MP_CAPABLE length %d", len(b))
		}
		s.AddMPCapable(MPCapableOption{Key: binary.BigEndian.Uint64(b[4:])})
	case SubMPJoin:
		if len(b) != 12 {
			return fmt.Errorf("seg: MP_JOIN length %d", len(b))
		}
		s.AddMPJoin(MPJoinOption{
			AddrID: b[3],
			Backup: b[2]&0x1 != 0,
			Token:  binary.BigEndian.Uint32(b[4:]),
			Nonce:  binary.BigEndian.Uint32(b[8:]),
		})
	case SubDSS:
		o, err := decodeDSS(b)
		if err != nil {
			return err
		}
		s.AddDSS(o)
	case SubAddAddr:
		if len(b) != 10 {
			return fmt.Errorf("seg: ADD_ADDR length %d", len(b))
		}
		s.AddAddAddr(AddAddrOption{AddrID: b[3], Addr: decodeAddr(b[4:])})
	case SubRemoveAddr:
		if len(b) != 10 {
			return fmt.Errorf("seg: REMOVE_ADDR length %d", len(b))
		}
		s.AddRemoveAddr(RemoveAddrOption{AddrID: b[3], Addr: decodeAddr(b[4:])})
	case SubFastClose:
		if len(b) != 12 {
			return fmt.Errorf("seg: MP_FASTCLOSE length %d", len(b))
		}
		s.AddFastClose(FastCloseOption{Key: binary.BigEndian.Uint64(b[4:])})
	default:
		return fmt.Errorf("seg: unknown MPTCP subtype 0x%x", uint8(sub))
	}
	return nil
}

// decodeDSS reads a DSS option at the widths its flags state: a
// receiver must accept the 4-octet data ACK and data sequence number
// (what the Linux v0 stack sends by default) as well as the 8-octet
// ones, so 4-octet values are zero-extended into the same fields. The
// trailing checksum, present only when negotiated, is ignored.
func decodeDSS(b []byte) (DSSOption, error) {
	if len(b) < 4 {
		return DSSOption{}, fmt.Errorf("seg: truncated DSS option")
	}
	flags := b[3]
	o := DSSOption{
		HasAck:  flags&dssAckPresent != 0,
		HasMap:  flags&dssMapPresent != 0,
		DataFin: flags&dssDataFin != 0,
	}
	p := 4
	if o.HasAck {
		w := dssWidth(flags&dssAck8 != 0)
		if len(b) < p+w {
			return DSSOption{}, fmt.Errorf("seg: truncated DSS ack")
		}
		o.DataAck = bigEndian(b[p : p+w])
		p += w
	}
	if o.HasMap {
		w := dssWidth(flags&dssMap8 != 0)
		if len(b) < p+w+6 {
			return DSSOption{}, fmt.Errorf("seg: truncated DSS map")
		}
		o.DataSeq = bigEndian(b[p : p+w])
		o.SubflowSeq = binary.BigEndian.Uint32(b[p+w:])
		o.Length = binary.BigEndian.Uint16(b[p+w+4:])
	}
	return o, nil
}

func dssWidth(wide bool) int {
	if wide {
		return 8
	}
	return 4
}

// bigEndian reads b as one unsigned big-endian integer.
func bigEndian(b []byte) uint64 {
	var v uint64
	for _, c := range b {
		v = v<<8 | uint64(c)
	}
	return v
}

func decodeAddr(b []byte) Addr {
	var a Addr
	copy(a.IP[:], b[:4])
	a.Port = binary.BigEndian.Uint16(b[4:])
	return a
}
