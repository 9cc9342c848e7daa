package trace

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"

	"mptcplab/internal/netem"
	"mptcplab/internal/pcap"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

func dataPkt(ts int64, src, dst seg.Addr, seqn uint32, n int) *Packet {
	return &Packet{TS: ts, Seg: &seg.Segment{Src: src, Dst: dst, Seq: seqn, Flags: seg.ACK, PayloadLen: n}}
}

func ackPkt(ts int64, src, dst seg.Addr, ack uint32) *Packet {
	return &Packet{TS: ts, Seg: &seg.Segment{Src: src, Dst: dst, Ack: ack, Flags: seg.ACK}}
}

var (
	srv = seg.MakeAddr("192.168.1.1", 8080)
	cli = seg.MakeAddr("10.0.0.2", 40000)
)

func TestPacketDecode(t *testing.T) {
	s := &seg.Segment{
		Src: srv, Dst: cli, Seq: 1000, Ack: 2000,
		Flags: seg.ACK | seg.PSH, PayloadLen: 500,
	}
	s.AddDSS(seg.DSSOption{HasMap: true, HasAck: true, DataSeq: 77, Length: 500})
	p, err := NewPacket(123456, seg.Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if p.TS != 123456 || *p.Seg != *s {
		t.Errorf("decoded %d %+v, want %+v", p.TS, *p.Seg, *s)
	}
	f := p.Flow()
	if f.String() != "192.168.1.1:8080->10.0.0.2:40000" {
		t.Errorf("flow = %v", f)
	}
	if f.Reverse().Src != f.Dst {
		t.Error("Reverse wrong")
	}
}

func TestAnalyzerRTTAndRetransmissions(t *testing.T) {
	a := NewAnalyzer()
	ms := int64(1e6)

	a.Add(dataPkt(0*ms, srv, cli, 1, 1000))     // segment A
	a.Add(dataPkt(1*ms, srv, cli, 1001, 1000))  // segment B
	a.Add(ackPkt(30*ms, cli, srv, 1001))        // acks A: RTT 30ms
	a.Add(dataPkt(40*ms, srv, cli, 1001, 1000)) // B retransmitted
	a.Add(ackPkt(80*ms, cli, srv, 2001))        // acks B — Karn: no sample

	fs := a.FlowByEndpoints(Flow{Src: srv, Dst: cli})
	if fs == nil {
		t.Fatal("flow missing")
	}
	if fs.DataPkts != 3 || fs.RetransPkts != 1 {
		t.Errorf("pkts=%d retrans=%d", fs.DataPkts, fs.RetransPkts)
	}
	if got := fs.LossRate(); got < 0.33 || got > 0.34 {
		t.Errorf("loss = %v", got)
	}
	if len(fs.RTTms) != 1 || fs.RTTms[0] != 30 {
		t.Errorf("RTT samples = %v, want [30]", fs.RTTms)
	}
}

func TestAnalyzerPartialRetransmissionNotCounted(t *testing.T) {
	a := NewAnalyzer()
	a.Add(dataPkt(0, srv, cli, 1, 1000))
	// New data overlapping nothing previously seen entirely: counts as
	// fresh even though it abuts.
	a.Add(dataPkt(1, srv, cli, 1001, 500))
	fs := a.Flows()[0]
	if fs.RetransPkts != 0 {
		t.Errorf("fresh data misclassified as retransmission")
	}
}

func TestAnalyzerOFOReconstruction(t *testing.T) {
	a := NewAnalyzer()
	ms := int64(1e6)
	add := func(ts int64, seqn uint32) {
		p := dataPkt(ts, srv, cli, seqn, 1000)
		p.Seg.AddDSS(seg.DSSOption{HasMap: true, HasAck: true, DataSeq: uint64(seqn), Length: 1000})
		a.Add(p)
	}
	// Data seq 1..1001 arrives at t=0 (in order), 2001..3001 at t=10ms
	// (hole at 1001), hole filled at t=50ms. The capture holds no
	// handshake, so the flow's first DSS mapping makes it a connection.
	add(0*ms, 1)
	add(10*ms, 2001)
	add(50*ms, 1001)

	conns := a.Connections()
	if len(conns) != 1 || len(conns[0].OFOms) != 3 {
		t.Fatalf("connections = %+v, want one with three OFO samples", conns)
	}
	ofo := conns[0].OFOms
	// First in order, the hole-filler in order at its arrival, the
	// early block waited 40ms.
	var waited []float64
	zero := 0
	for _, d := range ofo {
		if d == 0 {
			zero++
		} else {
			waited = append(waited, d)
		}
	}
	if zero != 2 || len(waited) != 1 || waited[0] != 40 {
		t.Errorf("OFO = %v, want two zeros and one 40ms", ofo)
	}
}

func TestMemoryCaptureAndSummary(t *testing.T) {
	mc := &MemoryCapture{}
	tap := mc.Tap()
	s := &seg.Segment{Src: srv, Dst: cli, Seq: 1, Flags: seg.ACK, PayloadLen: 100}
	tap(0, 5, s)
	if len(mc.Packets) != 1 {
		t.Fatalf("capture holds %d packets", len(mc.Packets))
	}
	a := mc.Analyze()
	var sb strings.Builder
	a.WriteSummary(&sb)
	if !strings.Contains(sb.String(), "data pkts: 1") {
		t.Errorf("summary = %q", sb.String())
	}
}

// TestMemoryCaptureKeepsClones: a host tap hands over the live segment,
// which the network recycles after delivery, so the capture must keep
// its own copy — the pool's next segment is the same memory.
func TestMemoryCaptureKeepsClones(t *testing.T) {
	s := sim.New()
	n := netem.NewNetwork(s)
	a, b := n.NewHost("a"), n.NewHost("b")
	l := netem.NewLink(s, sim.NewRNG(1), "ab")
	l.Rate = units.Gbps
	n.AddRoute(srv.IP, cli.IP, b, l)
	mc := &MemoryCapture{}
	a.AddTap(mc.Tap())
	for _, seq := range []uint32{42, 99} {
		sg := a.NewSegment()
		sg.Src, sg.Dst, sg.Seq = srv, cli, seq
		a.Send(sg)
		s.Run()
	}
	if n.Pool().News != 1 {
		t.Fatalf("pool allocated %d segments, want the first one reused", n.Pool().News)
	}
	if len(mc.Packets) != 2 || mc.Packets[0].Seg.Seq != 42 || mc.Packets[1].Seg.Seq != 99 {
		t.Errorf("capture holds %d packets, first seq %d: a recycled segment overwrote it",
			len(mc.Packets), mc.Packets[0].Seg.Seq)
	}
}

func TestAnalyzePcapEndToEnd(t *testing.T) {
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ms := int64(1e6)
	write := func(ts int64, s *seg.Segment) {
		if err := w.WritePacket(pcap.Packet{TS: ts, Data: seg.Encode(s)}); err != nil {
			t.Fatal(err)
		}
	}
	write(0, &seg.Segment{Src: srv, Dst: cli, Seq: 1, Flags: seg.ACK, PayloadLen: 1000})
	write(25*ms, &seg.Segment{Src: cli, Dst: srv, Ack: 1001, Flags: seg.ACK})

	a, err := AnalyzePcap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fs := a.Flows()[0]
	if len(fs.RTTms) != 1 || fs.RTTms[0] != 25 {
		t.Errorf("RTT = %v", fs.RTTms)
	}
}

func TestPacketSourceSkipsGarbage(t *testing.T) {
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf)
	_ = w.WritePacket(pcap.Packet{TS: 1, Data: []byte{0xde, 0xad}}) // undecodable
	good := &seg.Segment{Src: srv, Dst: cli, Flags: seg.ACK}
	_ = w.WritePacket(pcap.Packet{TS: 2, Data: seg.Encode(good)})

	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPacketSource(r)
	pkts, err := ps.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || ps.DecodeErrors != 1 {
		t.Errorf("pkts=%d decodeErrors=%d", len(pkts), ps.DecodeErrors)
	}
}

// TestPacketSourceKeepsThirdAck: a capture of a real v0 handshake has a
// 20-octet MP_CAPABLE on its third ACK (RFC 6824 §3.1; the frame is
// internal/seg's thirdAckV0). It is a packet of the flow like any
// other, not a decode error.
func TestPacketSourceKeepsThirdAck(t *testing.T) {
	frame, err := hex.DecodeString("450000481c464000400652bf0a000002c0a801019c401f90000003e900001389d01000e5383e0000" +
		"0101080a00001001000020021e1400810123456789abcdeffedcba9876543210")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf)
	_ = w.WritePacket(pcap.Packet{TS: 1, Data: frame})
	r, err := pcap.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ps := NewPacketSource(r)
	pkts, err := ps.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) != 1 || ps.DecodeErrors != 0 {
		t.Fatalf("pkts=%d decodeErrors=%d, want the frame kept", len(pkts), ps.DecodeErrors)
	}
	if s := pkts[0].Seg; !s.Has(seg.OptMPCapable) || s.MPCapable.Key != 0x0123456789abcdef || s.Src != cli {
		t.Errorf("third ACK decoded as %v with key %#x", s, s.MPCapable.Key)
	}
}
