package seg

import (
	"bytes"
	"testing"
)

// FuzzSegDecode throws arbitrary bytes at the wire decoder. A frame the
// decoder accepts must survive the wire: re-encoded and decoded again
// it is the same segment — every header field and every option,
// compared with == — and encodes to the same bytes, with valid
// checksums throughout. This pins the codec pair against asymmetries
// (an option decoded differently than it encodes corrupts every pcap
// the tracer writes).
func FuzzSegDecode(f *testing.F) {
	seed := func(s *Segment) {
		f.Add(Encode(s))
	}
	seed(&Segment{
		Src: MakeAddr("10.0.0.2", 40000), Dst: MakeAddr("192.168.1.1", 8080),
		Seq: 1000, Flags: SYN, Window: 65535,
	})
	syn := &Segment{
		Src: MakeAddr("10.0.0.2", 40000), Dst: MakeAddr("192.168.1.1", 8080),
		Seq: 1, Ack: 0, Flags: SYN, Window: 14600,
	}
	syn.AddMSS(MSSOption{MSS: 1460}).AddWindowScale(WindowScaleOption{Shift: 7}).AddSACKPermitted()
	syn.AddMPCapable(MPCapableOption{Key: 0xDEADBEEF})
	seed(syn)
	data := &Segment{
		Src: MakeAddr("192.168.1.1", 8080), Dst: MakeAddr("10.0.0.2", 40000),
		Seq: 5000, Ack: 2, Flags: ACK | PSH, Window: 1000, PayloadLen: 512,
	}
	data.AddDSS(DSSOption{HasAck: true, DataAck: 77, HasMap: true, DataSeq: 100, SubflowSeq: 4999, Length: 512})
	seed(data)
	sack := &Segment{
		Src: MakeAddr("10.0.0.2", 40000), Dst: MakeAddr("192.168.1.1", 8080),
		Seq: 2, Ack: 5512, Flags: ACK, Window: 8192,
	}
	sack.AddSACK([]SACKBlock{{Start: 6000, End: 6512}, {Start: 7000, End: 7512}})
	seed(sack)

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := Decode(b)
		if err != nil {
			return // rejected input: fine, as long as we didn't panic
		}
		if s.WireSize() > 0xFFFF {
			return // with its DSS widened to 8 octets it outgrows an IPv4 datagram
		}
		w := Encode(s)
		if err := VerifyChecksums(w); err != nil {
			t.Fatalf("re-encoded frame has bad checksums: %v", err)
		}
		s2, err := Decode(w)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		// Widening a 4-octet DSS to the 8-octet forms can push an option
		// over the header budget; only then may s2 differ from s.
		fit, _ := s.wireOptions()
		if s2.opts != fit {
			t.Fatalf("options %b re-encoded as %b, the budget allows %b", s.opts, s2.opts, fit)
		}
		if fit == s.opts && *s2 != *s {
			t.Fatalf("segment drifted through the wire:\n was %+v\n now %+v", *s, *s2)
		}
		if !bytes.Equal(w, Encode(s2)) {
			t.Fatal("Encode(Decode(Encode(s))) is not a fixpoint")
		}
	})
}
