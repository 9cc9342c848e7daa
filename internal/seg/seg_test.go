package seg

import (
	"encoding/hex"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		a, b uint32
		lt   bool
	}{
		{1, 2, true},
		{2, 1, false},
		{5, 5, false},
		{math.MaxUint32, 0, true},       // wraparound
		{0, math.MaxUint32, false},      // wraparound
		{math.MaxUint32 - 10, 10, true}, // across the wrap
	}
	for _, c := range cases {
		if got := SeqLT(c.a, c.b); got != c.lt {
			t.Errorf("SeqLT(%d,%d) = %v, want %v", c.a, c.b, got, c.lt)
		}
	}
	if !SeqLEQ(7, 7) || !SeqGEQ(7, 7) {
		t.Error("SeqLEQ/SeqGEQ not reflexive")
	}
	if SeqMax(10, 20) != 20 || SeqMin(10, 20) != 10 {
		t.Error("SeqMax/SeqMin wrong")
	}
	if SeqMax(math.MaxUint32, 5) != 5 {
		t.Error("SeqMax across wrap wrong")
	}
}

// SeqLT is a strict total order on windows < 2^31.
func TestSeqOrderProperty(t *testing.T) {
	f := func(base uint32, d1, d2 uint16) bool {
		a := base + uint32(d1)
		b := base + uint32(d2)
		switch {
		case d1 < d2:
			return SeqLT(a, b)
		case d1 > d2:
			return SeqGT(a, b)
		default:
			return !SeqLT(a, b) && !SeqGT(a, b)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDSeqArithmetic(t *testing.T) {
	if !DSeqLT(1, 2) || DSeqLT(2, 1) {
		t.Error("DSeqLT wrong")
	}
	if !DSeqGEQ(5, 5) {
		t.Error("DSeqGEQ not reflexive")
	}
}

func TestMakeAddr(t *testing.T) {
	a := MakeAddr("10.1.2.3", 8080)
	if a.String() != "10.1.2.3:8080" {
		t.Errorf("String = %q", a.String())
	}
	if a.IPString() != "10.1.2.3" {
		t.Errorf("IPString = %q", a.IPString())
	}
	defer func() {
		if recover() == nil {
			t.Error("bad literal did not panic")
		}
	}()
	MakeAddr("not-an-ip", 1)
}

func TestFlagsString(t *testing.T) {
	if got := (SYN | ACK).String(); got != "SYN|ACK" {
		t.Errorf("Flags = %q", got)
	}
	if got := Flags(0).String(); got != "-" {
		t.Errorf("empty Flags = %q", got)
	}
}

func TestSegmentEnd(t *testing.T) {
	s := &Segment{Seq: 100, PayloadLen: 50}
	if s.End() != 150 {
		t.Errorf("End = %d", s.End())
	}
	s.Flags = SYN
	if s.End() != 151 {
		t.Errorf("End with SYN = %d", s.End())
	}
	s.Flags = SYN | FIN
	if s.End() != 152 {
		t.Errorf("End with SYN|FIN = %d", s.End())
	}
}

func TestCloneIsDeep(t *testing.T) {
	s := (&Segment{Seq: 1}).AddMSS(MSSOption{MSS: 1460}).AddSACK([]SACKBlock{{Start: 1, End: 2}})
	c := s.Clone()
	c.AddMSS(MSSOption{MSS: 9000})
	c.SACK()[0].End = 99
	if s.MSS.MSS != 1460 || s.SACK()[0].End != 2 {
		t.Error("Clone shares option storage")
	}
}

// TestSegmentPointerFree pins the property the pool and Clone rest on:
// nothing in a Segment is a reference, so pooled segments are never
// scanned by the GC, reuse writes no barrier, and a copy is a clone.
func TestSegmentPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String,
			reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %v", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	walk("Segment", reflect.TypeOf(Segment{}))
}

// realistic option stacks (each within the 40-byte TCP option budget).
var optionStacks = []func(*Segment){
	func(s *Segment) { // MPTCP SYN
		s.AddMSS(MSSOption{MSS: 1460}).AddWindowScale(WindowScaleOption{Shift: 8}).AddSACKPermitted()
		s.AddMPCapable(MPCapableOption{Key: 0xDEADBEEFCAFEF00D})
	},
	func(s *Segment) { // join SYN
		s.AddMSS(MSSOption{MSS: 1400}).AddWindowScale(WindowScaleOption{Shift: 7}).AddSACKPermitted()
		s.AddMPJoin(MPJoinOption{Token: 0xABCD1234, Nonce: 42, AddrID: 3})
	},
	func(s *Segment) { // data segment with full DSS
		s.AddDSS(DSSOption{HasMap: true, HasAck: true, DataSeq: 1 << 40, SubflowSeq: 77, Length: 1460, DataAck: 999, DataFin: true})
	},
	func(s *Segment) { // pure ACK with SACK blocks and a data-level ACK
		s.AddSACK([]SACKBlock{{Start: 100, End: 200}, {Start: 400, End: 480}})
		s.AddDSS(DSSOption{HasAck: true, DataAck: 4242})
	},
	func(s *Segment) { // address advertisement riding on an ACK
		s.AddDSS(DSSOption{HasAck: true, DataAck: 1})
		s.AddAddAddr(AddAddrOption{AddrID: 9, Addr: MakeAddr("172.16.0.2", 443)})
	},
	func(s *Segment) { // timestamps
		s.AddTimestamps(TimestampsOption{Val: 12345, Ecr: 678})
	},
	func(s *Segment) { // address withdrawal riding on an ACK
		s.AddDSS(DSSOption{HasAck: true, DataAck: 7})
		s.AddRemoveAddr(RemoveAddrOption{AddrID: 2, Addr: MakeAddr("10.0.0.2", 40000)})
	},
	func(s *Segment) { // connection-level abort
		s.AddFastClose(FastCloseOption{Key: 0x0123456789ABCDEF})
	},
	func(s *Segment) { // backup-flagged join
		s.AddMPJoin(MPJoinOption{Token: 0xFEEDF00D, Nonce: 7, AddrID: 1, Backup: true})
	},
}

func TestWireRoundTrip(t *testing.T) {
	for i, addOptions := range optionStacks {
		s := &Segment{
			Src:        MakeAddr("10.0.0.2", 40000),
			Dst:        MakeAddr("192.168.1.1", 8080),
			Seq:        0xDEAD0001,
			Ack:        0xBEEF0002,
			Flags:      ACK | PSH,
			Window:     31000,
			PayloadLen: 777,
		}
		addOptions(s)
		b := Encode(s)
		if err := VerifyChecksums(b); err != nil {
			t.Fatalf("stack %d: checksums: %v", i, err)
		}
		if len(b) != s.WireSize() {
			t.Errorf("stack %d: encoded %d bytes, WireSize says %d", i, len(b), s.WireSize())
		}
		d, err := Decode(b)
		if err != nil {
			t.Fatalf("stack %d: decode: %v", i, err)
		}
		if *d != *s {
			t.Errorf("stack %d: mismatch:\n got  %+v\n want %+v", i, *d, *s)
		}
	}
}

// Options beyond the 40-byte TCP budget are dropped, never corrupting
// the frame, and a later option that still fits rides along.
func TestOptionBudgetOverflow(t *testing.T) {
	s := &Segment{
		Src: MakeAddr("1.1.1.1", 1), Dst: MakeAddr("2.2.2.2", 2),
		Flags: ACK, PayloadLen: 10,
	}
	s.AddSACK([]SACKBlock{{1, 2}, {3, 4}, {5, 6}})                       // 26 bytes
	s.AddDSS(DSSOption{HasMap: true, HasAck: true, Length: 10})          // 28: overflows
	s.AddAddAddr(AddAddrOption{AddrID: 1, Addr: MakeAddr("3.3.3.3", 3)}) // 10: still fits
	b := Encode(s)
	if err := VerifyChecksums(b); err != nil {
		t.Fatalf("checksums: %v", err)
	}
	if len(b) != s.WireSize() {
		t.Errorf("encoded %d bytes, WireSize says %d", len(b), s.WireSize())
	}
	d, err := Decode(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if d.Has(OptDSS) {
		t.Error("over-budget DSS survived")
	}
	if !d.Has(OptSACK) || !d.Has(OptAddAddr) {
		t.Error("fitting options were dropped")
	}
}

// TestWireBytesPinned holds the encoder to the bytes the stack put on
// the wire before options became typed slots: testdata/pinned_wire.txt
// was generated at that commit from the same eight stack-shaped
// segments, with options added in the order the stack adds them.
func TestWireBytesPinned(t *testing.T) {
	cli := MakeAddr("10.0.0.2", 40000)
	cell := MakeAddr("172.16.0.2", 40001)
	srv := MakeAddr("192.168.1.1", 8080)
	syn := func(src Addr) *Segment {
		s := &Segment{Src: src, Dst: srv, Seq: 0x01020304, Flags: SYN, Window: 65535}
		return s.AddMSS(MSSOption{MSS: 1460}).AddWindowScale(WindowScaleOption{Shift: 7}).AddSACKPermitted()
	}
	ack := func() *Segment {
		return &Segment{Src: cli, Dst: srv, Seq: 0x01020305, Ack: 0x0A0B0C0D, Flags: ACK, Window: 4096}
	}
	sack3 := []SACKBlock{{Start: 3000, End: 4460}, {Start: 5920, End: 7380}, {Start: 8840, End: 10300}}
	segs := map[string]*Segment{
		"syn-mpcapable":     syn(cli).AddMPCapable(MPCapableOption{Key: 0xDEADBEEFCAFEF00D}),
		"syn-mpjoin-backup": syn(cell).AddMPJoin(MPJoinOption{Token: 0xABCD1234, Nonce: 0x00C0FFEE, AddrID: 1, Backup: true}),
		"data-dss": (&Segment{Src: srv, Dst: cli, Seq: 0x0A0B0C0D, Ack: 0x01020305, Flags: ACK | PSH, Window: 512, PayloadLen: 16}).
			AddDSS(DSSOption{HasAck: true, DataAck: 101, HasMap: true, DataSeq: 1<<32 + 5, SubflowSeq: 1, Length: 16}),
		"ack-sack3-dss-ack": ack().AddSACK(sack3).AddDSS(DSSOption{HasAck: true, DataAck: 1<<32 + 21}),
		"ack-sack2-datafin-rationed": ack().AddSACK(sack3[:2]).
			AddDSS(DSSOption{HasAck: true, DataAck: 1<<32 + 21, HasMap: true, DataSeq: 777, DataFin: true}),
		"ack-add-addr":    ack().AddDSS(DSSOption{HasAck: true, DataAck: 9}).AddAddAddr(AddAddrOption{AddrID: 1, Addr: cell}),
		"ack-remove-addr": ack().AddDSS(DSSOption{HasAck: true, DataAck: 9}).AddRemoveAddr(RemoveAddrOption{AddrID: 1, Addr: cell}),
		"ack-fastclose":   ack().AddDSS(DSSOption{HasAck: true, DataAck: 9}).AddFastClose(FastCloseOption{Key: 0x0123456789ABCDEF}),
	}
	raw, err := os.ReadFile("testdata/pinned_wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Fields(string(raw))
	if len(lines) != 2*len(segs) {
		t.Fatalf("fixture holds %d fields, want %d name/hex pairs", len(lines), len(segs))
	}
	for i := 0; i < len(lines); i += 2 {
		name, want := lines[i], lines[i+1]
		s, ok := segs[name]
		if !ok {
			t.Errorf("fixture names unknown segment %q", name)
			continue
		}
		if got := hex.EncodeToString(Encode(s)); got != want {
			t.Errorf("%s:\n got  %s\n want %s", name, got, want)
		}
	}
	if segs["ack-sack2-datafin-rationed"].WireSize() != 40+20 {
		t.Error("SACK×2 + DATA_FIN DSS: the DSS should be rationed off the wire")
	}
}

// A DSS option decodes at the width its flags state (RFC 6824 §3.3.1):
// A/M mean present, a/m mean 8 octets, and the Linux v0 stack sends the
// 4-octet forms by default.
func TestDecodeDSSWidths(t *testing.T) {
	cases := []struct {
		name string
		opt  []byte
		want DSSOption
	}{
		{"4-octet ack", []byte{30, 8, 0x20, 0x01, 0xAA, 0xBB, 0xCC, 0xDD},
			DSSOption{HasAck: true, DataAck: 0xAABBCCDD}},
		{"4-octet ack and map", []byte{30, 18, 0x20, 0x05, 0, 0, 0, 9, 0, 0, 1, 0, 0, 0, 0, 7, 0x05, 0xB4},
			DSSOption{HasAck: true, DataAck: 9, HasMap: true, DataSeq: 256, SubflowSeq: 7, Length: 1460}},
		{"4-octet map with checksum", []byte{30, 16, 0x20, 0x14, 0, 0, 1, 0, 0, 0, 0, 7, 0, 100, 0xBE, 0xEF},
			DSSOption{HasMap: true, DataSeq: 256, SubflowSeq: 7, Length: 100, DataFin: true}},
		{"width bit without presence bit", []byte{30, 4, 0x20, 0x02}, DSSOption{}},
		{"8-octet ack", []byte{30, 12, 0x20, 0x03, 0, 0, 0, 1, 0, 0, 0, 2},
			DSSOption{HasAck: true, DataAck: 1<<32 + 2}},
		{"8-octet ack and map", []byte{30, 28, 0x20, 0x0F, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 6, 0, 0},
			DSSOption{HasAck: true, DataAck: 1<<32 + 2, HasMap: true, DataSeq: 3<<32 + 4, SubflowSeq: 5, Length: 6}},
	}
	for _, tc := range cases {
		var s Segment
		if err := decodeOptions(tc.opt, &s); err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !s.Has(OptDSS) || s.DSS != tc.want {
			t.Errorf("%s: DSS = %+v (present %v), want %+v", tc.name, s.DSS, s.Has(OptDSS), tc.want)
		}
	}
	for _, short := range [][]byte{
		{30, 6, 0x20, 0x01, 0, 0},                    // ack cut short
		{30, 8, 0x20, 0x03, 0, 0, 0, 0},              // 8-octet ack in 4
		{30, 12, 0x20, 0x04, 0, 0, 0, 1, 0, 0, 0, 1}, // map without length
	} {
		if err := decodeOptions(short, new(Segment)); err == nil {
			t.Errorf("accepted truncated DSS % x", short)
		}
	}
}

// thirdAckV0 is the third ACK of a Linux v0 handshake (RFC 6824 §3.1):
// NOP NOP timestamps, then a 20-octet MP_CAPABLE with checksum-required
// and HMAC-SHA1 flags that carries the sender's key 0123456789abcdef and
// echoes the receiver's.
const thirdAckV0 = "450000481c464000400652bf0a000002c0a801019c401f90000003e900001389d01000e5383e0000" +
	"0101080a0000100100002002" + "1e140081" + "0123456789abcdef" + "fedcba9876543210"

func TestDecodeThirdAckMPCapable(t *testing.T) {
	frame, err := hex.DecodeString(thirdAckV0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyChecksums(frame); err != nil {
		t.Fatal(err)
	}
	s, err := Decode(frame)
	if err != nil {
		t.Fatalf("a real capture's third ACK does not decode: %v", err)
	}
	want := Segment{
		Src: MakeAddr("10.0.0.2", 40000), Dst: MakeAddr("192.168.1.1", 8080),
		Seq: 1001, Ack: 5001, Flags: ACK, Window: 229,
	}
	want.AddTimestamps(TimestampsOption{Val: 0x1001, Ecr: 0x2002})
	want.AddMPCapable(MPCapableOption{Key: 0x0123456789abcdef})
	if *s != want {
		t.Errorf("decoded %+v\n   want %+v", *s, want)
	}
	// The stack itself only ever sends the 12-octet form.
	if got := len(Encode(s)); got != 20+20+12+12 {
		t.Errorf("re-encoded frame is %d bytes, want the 12-octet MP_CAPABLE", got)
	}
	for _, n := range []int{4, 11, 13, 19, 21} {
		opt := make([]byte, n)
		opt[0], opt[1] = byte(KindMPTCP), byte(n)
		if err := decodeOptions(opt, new(Segment)); err == nil {
			t.Errorf("accepted a %d-octet MP_CAPABLE", n)
		}
	}
}

// Any segment built from random fields round-trips through the wire.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(seq, ack uint32, flagBits uint8, payload uint16, win uint16,
		key uint64, dseq uint64) bool {
		flags := Flags(flagBits) & (SYN | ACK | FIN | RST | PSH)
		s := &Segment{
			Src:        MakeAddr("10.0.0.1", 1234),
			Dst:        MakeAddr("10.0.0.2", 80),
			Seq:        seq,
			Ack:        ack,
			Flags:      flags,
			Window:     uint32(win),
			PayloadLen: int(payload % 1461),
		}
		// (MP_CAPABLE 12 + DSS 28 = 40 bytes: exactly the budget.)
		s.AddMPCapable(MPCapableOption{Key: key})
		s.AddDSS(DSSOption{HasMap: true, HasAck: true, DataSeq: dseq, SubflowSeq: seq, Length: uint16(payload % 1461), DataAck: dseq >> 1})
		b := Encode(s)
		if VerifyChecksums(b) != nil {
			return false
		}
		d, err := Decode(b)
		return err == nil && *d == *s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0x45},
		make([]byte, 19),
		append([]byte{0x65}, make([]byte, 30)...), // IPv6 version nibble
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: decode accepted garbage", i)
		}
	}
	// Non-TCP protocol.
	s := &Segment{Src: MakeAddr("1.2.3.4", 1), Dst: MakeAddr("5.6.7.8", 2)}
	b := Encode(s)
	b[9] = 17 // UDP
	if _, err := Decode(b); err == nil {
		t.Error("decode accepted UDP frame")
	}
}

func TestCorruptedChecksumDetected(t *testing.T) {
	s := &Segment{
		Src: MakeAddr("10.0.0.1", 5), Dst: MakeAddr("10.0.0.2", 6),
		PayloadLen: 100, Flags: ACK,
	}
	b := Encode(s)
	b[len(b)-1] ^= 0xFF
	if VerifyChecksums(b) == nil {
		t.Error("flipped payload byte not caught by TCP checksum")
	}
}

func TestOptionLookup(t *testing.T) {
	s := &Segment{}
	s.AddMSS(MSSOption{MSS: 1400})
	s.AddDSS(DSSOption{HasAck: true, DataAck: 5})
	if !s.Has(OptMSS) || s.MSS.MSS != 1400 {
		t.Error("MSS lookup failed")
	}
	if s.Has(OptSACK) || s.SACK() != nil {
		t.Error("found absent option")
	}
	if !s.Has(OptDSS) || !s.Has(OptMPTCP) {
		t.Error("DSS lookup failed")
	}
	if s.Has(OptMPJoin) {
		t.Error("found absent MPTCP subtype")
	}
	// Adding a kind again overwrites it.
	if s.AddMSS(MSSOption{MSS: 500}); s.MSS.MSS != 500 {
		t.Error("second AddMSS did not overwrite")
	}
}

func TestDecodeOptionsIgnoresUnknownKinds(t *testing.T) {
	// kind 254 (experimental), length 4, two payload bytes, then MSS
	// twice: the first occurrence of a repeated kind stands.
	raw := []byte{254, 4, 0, 0, byte(KindMSS), 4, 5, 0xB4, byte(KindMSS), 4, 1, 0}
	var s, want Segment
	if err := decodeOptions(raw, &s); err != nil {
		t.Fatal(err)
	}
	if want.AddMSS(MSSOption{MSS: 1460}); s != want {
		t.Errorf("decoded %+v", s)
	}
}

func TestDecodeOptionsTruncated(t *testing.T) {
	if err := decodeOptions([]byte{byte(KindMSS), 10, 1}, new(Segment)); err == nil {
		t.Error("accepted option longer than buffer")
	}
	if err := decodeOptions([]byte{byte(KindMSS)}, new(Segment)); err == nil {
		t.Error("accepted truncated option header")
	}
}
