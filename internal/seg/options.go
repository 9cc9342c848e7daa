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

// String names the subtype.
func (s MPTCPSubtype) String() string {
	switch s {
	case SubMPCapable:
		return "MP_CAPABLE"
	case SubMPJoin:
		return "MP_JOIN"
	case SubDSS:
		return "DSS"
	case SubAddAddr:
		return "ADD_ADDR"
	case SubRemoveAddr:
		return "REMOVE_ADDR"
	case SubFastClose:
		return "MP_FASTCLOSE"
	default:
		return fmt.Sprintf("MPTCP(0x%x)", uint8(s))
	}
}

// Option is one TCP option. Implementations are value types; a Segment
// carries a slice of them.
type Option interface {
	Kind() OptionKind
	// wireLen is the encoded length including kind and length bytes.
	wireLen() int
	// encode appends the option's wire bytes to dst.
	encode(dst []byte) []byte
}

// mptcpOption is implemented by the MPTCP option subtypes.
type mptcpOption interface {
	Option
	Subtype() MPTCPSubtype
}

// --- Plain TCP options ---

// MSSOption advertises the maximum segment size on a SYN.
type MSSOption struct{ MSS uint16 }

func (MSSOption) Kind() OptionKind { return KindMSS }
func (MSSOption) wireLen() int     { return 4 }
func (o MSSOption) encode(dst []byte) []byte {
	return append(dst, byte(KindMSS), 4, byte(o.MSS>>8), byte(o.MSS))
}

// WindowScaleOption advertises a window shift count on a SYN.
type WindowScaleOption struct{ Shift uint8 }

func (WindowScaleOption) Kind() OptionKind { return KindWindowScale }
func (WindowScaleOption) wireLen() int     { return 3 }
func (o WindowScaleOption) encode(dst []byte) []byte {
	return append(dst, byte(KindWindowScale), 3, o.Shift)
}

// SACKPermittedOption signals SACK support on a SYN.
type SACKPermittedOption struct{}

func (SACKPermittedOption) Kind() OptionKind { return KindSACKPermitted }
func (SACKPermittedOption) wireLen() int     { return 2 }
func (o SACKPermittedOption) encode(dst []byte) []byte {
	return append(dst, byte(KindSACKPermitted), 2)
}

// SACKBlock is one [Start,End) selectively acknowledged range.
type SACKBlock struct{ Start, End uint32 }

// Contains reports whether sequence s lies within the block.
func (b SACKBlock) Contains(s uint32) bool {
	return SeqLEQ(b.Start, s) && SeqLT(s, b.End)
}

// SACKOption carries up to four SACK blocks on an ACK.
type SACKOption struct{ Blocks []SACKBlock }

func (SACKOption) Kind() OptionKind { return KindSACK }
func (o SACKOption) wireLen() int   { return 2 + 8*len(o.Blocks) }
func (o SACKOption) encode(dst []byte) []byte {
	dst = append(dst, byte(KindSACK), byte(2+8*len(o.Blocks)))
	for _, b := range o.Blocks {
		dst = binary.BigEndian.AppendUint32(dst, b.Start)
		dst = binary.BigEndian.AppendUint32(dst, b.End)
	}
	return dst
}

// TimestampsOption carries TSval/TSecr (RFC 7323).
type TimestampsOption struct{ Val, Ecr uint32 }

func (TimestampsOption) Kind() OptionKind { return KindTimestamps }
func (TimestampsOption) wireLen() int     { return 10 }
func (o TimestampsOption) encode(dst []byte) []byte {
	dst = append(dst, byte(KindTimestamps), 10)
	dst = binary.BigEndian.AppendUint32(dst, o.Val)
	return binary.BigEndian.AppendUint32(dst, o.Ecr)
}

// --- MPTCP option subtypes ---

// MPCapableOption starts an MPTCP connection on the first subflow's
// SYN / SYN-ACK, carrying each side's 64-bit key.
type MPCapableOption struct {
	Key uint64
}

func (MPCapableOption) Kind() OptionKind      { return KindMPTCP }
func (MPCapableOption) Subtype() MPTCPSubtype { return SubMPCapable }
func (MPCapableOption) wireLen() int          { return 12 }
func (o MPCapableOption) encode(d []byte) []byte {
	d = append(d, byte(KindMPTCP), 12, byte(SubMPCapable)<<4, 0x01 /* checksum off, ver 1 flags */)
	return binary.BigEndian.AppendUint64(d, o.Key)
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

func (MPJoinOption) Kind() OptionKind      { return KindMPTCP }
func (MPJoinOption) Subtype() MPTCPSubtype { return SubMPJoin }
func (MPJoinOption) wireLen() int          { return 12 }
func (o MPJoinOption) encode(d []byte) []byte {
	b := byte(SubMPJoin) << 4
	if o.Backup {
		b |= 0x1
	}
	d = append(d, byte(KindMPTCP), 12, b, o.AddrID)
	d = binary.BigEndian.AppendUint32(d, o.Token)
	return binary.BigEndian.AppendUint32(d, o.Nonce)
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

func (DSSOption) Kind() OptionKind      { return KindMPTCP }
func (DSSOption) Subtype() MPTCPSubtype { return SubDSS }
func (o DSSOption) wireLen() int {
	n := 4
	if o.HasAck {
		n += 8
	}
	if o.HasMap {
		n += 8 + 4 + 2 + 2 // dseq, sseq, len, checksum(placeholder)
	}
	return n
}
func (o DSSOption) encode(d []byte) []byte {
	flags := byte(0)
	if o.HasAck {
		flags |= 0x03 // data ACK present, 8 octets
	}
	if o.HasMap {
		flags |= 0x0C // DSN present, 8 octets
	}
	if o.DataFin {
		flags |= 0x10
	}
	d = append(d, byte(KindMPTCP), byte(o.wireLen()), byte(SubDSS)<<4, flags)
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

// AddAddrOption advertises an additional address of the sender.
type AddAddrOption struct {
	AddrID uint8
	Addr   Addr
}

func (AddAddrOption) Kind() OptionKind      { return KindMPTCP }
func (AddAddrOption) Subtype() MPTCPSubtype { return SubAddAddr }
func (AddAddrOption) wireLen() int          { return 10 }
func (o AddAddrOption) encode(d []byte) []byte {
	d = append(d, byte(KindMPTCP), 10, byte(SubAddAddr)<<4|0x4 /* IPv4 */, o.AddrID)
	d = append(d, o.Addr.IP[:]...)
	return binary.BigEndian.AppendUint16(d, o.Addr.Port)
}

// maxOptionBytes is the TCP header option budget: the 4-bit data
// offset allows at most a 60-byte header, i.e. 40 bytes of options.
const maxOptionBytes = 40

// RemoveAddrOption withdraws a previously advertised (or implicit)
// address: the peer should close subflows using it (RFC 6824 §3.4.2).
// The address itself rides along so simulated peers — which never saw
// an explicit AddrID for implicit addresses — can match subflows.
type RemoveAddrOption struct {
	AddrID uint8
	Addr   Addr
}

func (RemoveAddrOption) Kind() OptionKind      { return KindMPTCP }
func (RemoveAddrOption) Subtype() MPTCPSubtype { return SubRemoveAddr }
func (RemoveAddrOption) wireLen() int          { return 10 }
func (o RemoveAddrOption) encode(d []byte) []byte {
	d = append(d, byte(KindMPTCP), 10, byte(SubRemoveAddr)<<4, o.AddrID)
	d = append(d, o.Addr.IP[:]...)
	return binary.BigEndian.AppendUint16(d, o.Addr.Port)
}

// FastCloseOption aborts the whole MPTCP connection at once (RFC 6824
// §3.5), carrying the peer's key as authentication.
type FastCloseOption struct {
	Key uint64
}

func (FastCloseOption) Kind() OptionKind      { return KindMPTCP }
func (FastCloseOption) Subtype() MPTCPSubtype { return SubFastClose }
func (FastCloseOption) wireLen() int          { return 12 }
func (o FastCloseOption) encode(d []byte) []byte {
	d = append(d, byte(KindMPTCP), 12, byte(SubFastClose)<<4, 0)
	return binary.BigEndian.AppendUint64(d, o.Key)
}

// encodeOptions appends the options that fit the 40-byte TCP header
// budget — greedily skipping options that would overflow, the same
// space rationing real MPTCP stacks perform when SACK blocks and DSS
// compete for header room — plus NOP padding to a 32-bit boundary.
// The budget scan must stay in lockstep with Segment.optionsWireLen.
func encodeOptions(dst []byte, opts []Option) []byte {
	start := len(dst)
	n := 0
	for _, o := range opts {
		w := o.wireLen()
		if n+w > maxOptionBytes {
			continue
		}
		n += w
		dst = o.encode(dst)
	}
	for (len(dst)-start)%4 != 0 {
		dst = append(dst, byte(KindNOP))
	}
	return dst
}

// decodeOptions parses the options region of a TCP header.
func decodeOptions(b []byte) ([]Option, error) {
	var opts []Option
	for len(b) > 0 {
		kind := OptionKind(b[0])
		switch kind {
		case KindEOL:
			return opts, nil
		case KindNOP:
			b = b[1:]
			continue
		}
		if len(b) < 2 {
			return nil, fmt.Errorf("seg: truncated option kind %d", kind)
		}
		olen := int(b[1])
		if olen < 2 || olen > len(b) {
			return nil, fmt.Errorf("seg: bad option length %d for kind %d", olen, kind)
		}
		body := b[:olen]
		o, err := decodeOption(kind, body)
		if err != nil {
			return nil, err
		}
		if o != nil {
			opts = append(opts, o)
		}
		b = b[olen:]
	}
	return opts, nil
}

func decodeOption(kind OptionKind, b []byte) (Option, error) {
	switch kind {
	case KindMSS:
		if len(b) != 4 {
			return nil, fmt.Errorf("seg: MSS option length %d", len(b))
		}
		return MSSOption{MSS: binary.BigEndian.Uint16(b[2:])}, nil
	case KindWindowScale:
		if len(b) != 3 {
			return nil, fmt.Errorf("seg: wscale option length %d", len(b))
		}
		return WindowScaleOption{Shift: b[2]}, nil
	case KindSACKPermitted:
		return SACKPermittedOption{}, nil
	case KindSACK:
		if (len(b)-2)%8 != 0 {
			return nil, fmt.Errorf("seg: SACK option length %d", len(b))
		}
		n := (len(b) - 2) / 8
		o := SACKOption{Blocks: make([]SACKBlock, n)}
		for i := 0; i < n; i++ {
			o.Blocks[i].Start = binary.BigEndian.Uint32(b[2+8*i:])
			o.Blocks[i].End = binary.BigEndian.Uint32(b[6+8*i:])
		}
		return o, nil
	case KindTimestamps:
		if len(b) != 10 {
			return nil, fmt.Errorf("seg: timestamps option length %d", len(b))
		}
		return TimestampsOption{
			Val: binary.BigEndian.Uint32(b[2:]),
			Ecr: binary.BigEndian.Uint32(b[6:]),
		}, nil
	case KindMPTCP:
		return decodeMPTCP(b)
	default:
		// Unknown options are skipped, as a real stack would.
		return nil, nil
	}
}

func decodeMPTCP(b []byte) (Option, error) {
	if len(b) < 3 {
		return nil, fmt.Errorf("seg: truncated MPTCP option")
	}
	sub := MPTCPSubtype(b[2] >> 4)
	switch sub {
	case SubMPCapable:
		if len(b) != 12 {
			return nil, fmt.Errorf("seg: MP_CAPABLE length %d", len(b))
		}
		return MPCapableOption{Key: binary.BigEndian.Uint64(b[4:])}, nil
	case SubMPJoin:
		if len(b) != 12 {
			return nil, fmt.Errorf("seg: MP_JOIN length %d", len(b))
		}
		return MPJoinOption{
			AddrID: b[3],
			Backup: b[2]&0x1 != 0,
			Token:  binary.BigEndian.Uint32(b[4:]),
			Nonce:  binary.BigEndian.Uint32(b[8:]),
		}, nil
	case SubDSS:
		if len(b) < 4 {
			return nil, fmt.Errorf("seg: truncated DSS option")
		}
		flags := b[3]
		o := DSSOption{
			HasAck:  flags&0x03 != 0,
			HasMap:  flags&0x0C != 0,
			DataFin: flags&0x10 != 0,
		}
		p := 4
		if o.HasAck {
			if len(b) < p+8 {
				return nil, fmt.Errorf("seg: truncated DSS ack")
			}
			o.DataAck = binary.BigEndian.Uint64(b[p:])
			p += 8
		}
		if o.HasMap {
			if len(b) < p+14 {
				return nil, fmt.Errorf("seg: truncated DSS map")
			}
			o.DataSeq = binary.BigEndian.Uint64(b[p:])
			o.SubflowSeq = binary.BigEndian.Uint32(b[p+8:])
			o.Length = binary.BigEndian.Uint16(b[p+12:])
			p += 14
		}
		return o, nil
	case SubAddAddr:
		if len(b) != 10 {
			return nil, fmt.Errorf("seg: ADD_ADDR length %d", len(b))
		}
		var a Addr
		copy(a.IP[:], b[4:8])
		a.Port = binary.BigEndian.Uint16(b[8:])
		return AddAddrOption{AddrID: b[3], Addr: a}, nil
	case SubRemoveAddr:
		if len(b) != 10 {
			return nil, fmt.Errorf("seg: REMOVE_ADDR length %d", len(b))
		}
		var a Addr
		copy(a.IP[:], b[4:8])
		a.Port = binary.BigEndian.Uint16(b[8:])
		return RemoveAddrOption{AddrID: b[3], Addr: a}, nil
	case SubFastClose:
		if len(b) != 12 {
			return nil, fmt.Errorf("seg: MP_FASTCLOSE length %d", len(b))
		}
		return FastCloseOption{Key: binary.BigEndian.Uint64(b[4:])}, nil
	default:
		return nil, fmt.Errorf("seg: unknown MPTCP subtype %v", sub)
	}
}
