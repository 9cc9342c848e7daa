package seg

import (
	"encoding/binary"
	"fmt"
)

// Header sizes on the wire.
const (
	ipv4HeaderLen    = 20
	tcpBaseHeaderLen = 20
	protoTCP         = 6
)

// Encode renders the segment as real IPv4+TCP wire bytes, with valid
// lengths and checksums. Payload bytes are synthesized (a repeating
// counter pattern) since the simulator tracks only payload length.
func Encode(s *Segment) []byte {
	return AppendEncode(nil, s)
}

// AppendEncode appends the segment's wire bytes to dst and returns the
// extended slice. Reusing one scratch buffer across calls makes
// per-packet capture (pcap taps) allocation-free in steady state.
func AppendEncode(dst []byte, s *Segment) []byte {
	fit, optLen := s.wireOptions()
	tcpLen := tcpBaseHeaderLen + optLen + s.PayloadLen
	total := ipv4HeaderLen + tcpLen
	base := len(dst)
	if cap(dst)-base < total {
		grown := make([]byte, base, base+total)
		copy(grown, dst)
		dst = grown
	}

	// IPv4 header.
	dst = append(dst, 0x45, 0) // version 4, IHL 5, DSCP 0
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	dst = append(dst, 0, 0, 0x40, 0) // ID 0, flags DF, frag 0
	dst = append(dst, 64, protoTCP)  // TTL, protocol
	dst = append(dst, 0, 0)          // checksum placeholder
	dst = append(dst, s.Src.IP[:]...)
	dst = append(dst, s.Dst.IP[:]...)
	csum := ipChecksum(dst[base : base+ipv4HeaderLen])
	binary.BigEndian.PutUint16(dst[base+10:], csum)

	// TCP header.
	tcpStart := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, s.Src.Port)
	dst = binary.BigEndian.AppendUint16(dst, s.Dst.Port)
	dst = binary.BigEndian.AppendUint32(dst, s.Seq)
	dst = binary.BigEndian.AppendUint32(dst, s.Ack)
	dataOff := byte((tcpBaseHeaderLen + optLen) / 4)
	dst = append(dst, dataOff<<4, byte(s.Flags))
	win := s.Window
	if win > 0xFFFF {
		win = 0xFFFF // wire field is 16 bits; scaling is a receiver concern
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(win))
	dst = append(dst, 0, 0, 0, 0) // checksum + urgent placeholder
	dst = s.encodeOptions(dst, fit)

	// Synthesized payload.
	for i := 0; i < s.PayloadLen; i++ {
		dst = append(dst, byte(s.Seq)+byte(i))
	}

	tcsum := tcpChecksum(s.Src.IP, s.Dst.IP, dst[tcpStart:])
	binary.BigEndian.PutUint16(dst[tcpStart+16:], tcsum)
	return dst
}

// Decode parses wire bytes produced by Encode (or any IPv4/TCP frame)
// back into a Segment. Payload contents are discarded; only the length
// is retained.
func Decode(b []byte) (*Segment, error) {
	if len(b) < ipv4HeaderLen {
		return nil, fmt.Errorf("seg: short IPv4 header (%d bytes)", len(b))
	}
	if b[0]>>4 != 4 {
		return nil, fmt.Errorf("seg: not IPv4 (version %d)", b[0]>>4)
	}
	ihl := int(b[0]&0xF) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return nil, fmt.Errorf("seg: bad IHL %d", ihl)
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total > len(b) {
		return nil, fmt.Errorf("seg: IPv4 total length %d exceeds capture %d", total, len(b))
	}
	if total < ihl {
		return nil, fmt.Errorf("seg: IPv4 total length %d shorter than header %d", total, ihl)
	}
	if b[9] != protoTCP {
		return nil, fmt.Errorf("seg: not TCP (protocol %d)", b[9])
	}
	var s Segment
	copy(s.Src.IP[:], b[12:16])
	copy(s.Dst.IP[:], b[16:20])

	t := b[ihl:total]
	if len(t) < tcpBaseHeaderLen {
		return nil, fmt.Errorf("seg: short TCP header (%d bytes)", len(t))
	}
	s.Src.Port = binary.BigEndian.Uint16(t[0:])
	s.Dst.Port = binary.BigEndian.Uint16(t[2:])
	s.Seq = binary.BigEndian.Uint32(t[4:])
	s.Ack = binary.BigEndian.Uint32(t[8:])
	dataOff := int(t[12]>>4) * 4
	if dataOff < tcpBaseHeaderLen || dataOff > len(t) {
		return nil, fmt.Errorf("seg: bad TCP data offset %d", dataOff)
	}
	s.Flags = Flags(t[13])
	s.Window = uint32(binary.BigEndian.Uint16(t[14:]))
	if err := decodeOptions(t[tcpBaseHeaderLen:dataOff], &s); err != nil {
		return nil, err
	}
	s.PayloadLen = len(t) - dataOff
	return &s, nil
}

// ipChecksum computes the standard Internet checksum over the header.
func ipChecksum(h []byte) uint16 {
	return onesComplement(sum16(h, 0))
}

// tcpChecksum computes the TCP checksum including the IPv4 pseudo
// header.
func tcpChecksum(src, dst [4]byte, tcp []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:], src[:])
	copy(pseudo[4:], dst[:])
	pseudo[9] = protoTCP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(tcp)))
	s := sum16(pseudo[:], 0)
	s = sum16(tcp, s)
	return onesComplement(s)
}

func sum16(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

func onesComplement(s uint32) uint16 {
	for s>>16 != 0 {
		s = (s & 0xFFFF) + s>>16
	}
	return ^uint16(s)
}

// VerifyChecksums reports whether the IPv4 and TCP checksums in a wire
// frame are valid: a header carrying a correct checksum sums to zero.
// The codec's tests and fuzz target check every encoded frame with it.
func VerifyChecksums(b []byte) error {
	if len(b) < ipv4HeaderLen {
		return fmt.Errorf("seg: frame too short")
	}
	ihl := int(b[0]&0xF) * 4
	if ihl > len(b) {
		return fmt.Errorf("seg: bad IHL")
	}
	if onesComplement(sum16(b[:ihl], 0)) != 0 {
		return fmt.Errorf("seg: bad IPv4 checksum")
	}
	total := int(binary.BigEndian.Uint16(b[2:]))
	if total > len(b) {
		return fmt.Errorf("seg: truncated frame")
	}
	if tcpChecksum([4]byte(b[12:16]), [4]byte(b[16:20]), b[ihl:total]) != 0 {
		return fmt.Errorf("seg: bad TCP checksum")
	}
	return nil
}
