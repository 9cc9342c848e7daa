package trace_test

import (
	"fmt"

	"mptcplab/internal/seg"
	"mptcplab/internal/trace"
)

// A captured frame decodes to the parsed header the stack itself
// passes around: test for an option, then read its slot.
func ExampleNewPacket() {
	s := &seg.Segment{
		Src: seg.MakeAddr("192.168.1.1", 8080), Dst: seg.MakeAddr("10.0.0.2", 40000),
		Seq: 1000, Flags: seg.ACK | seg.PSH, PayloadLen: 1460,
	}
	s.AddDSS(seg.DSSOption{HasMap: true, DataSeq: 4096, Length: 1460})
	p, err := trace.NewPacket(0, seg.Encode(s))
	if err != nil {
		panic(err)
	}
	fmt.Println("flow:", p.Flow())
	fmt.Printf("payload: %d bytes, flags %v\n", p.Seg.PayloadLen, p.Seg.Flags)
	if p.Seg.Has(seg.OptDSS) {
		fmt.Println("data seq:", p.Seg.DSS.DataSeq)
	}
	// Output:
	// flow: 192.168.1.1:8080->10.0.0.2:40000
	// payload: 1460 bytes, flags ACK|PSH
	// data seq: 4096
}

// The analyzer recomputes tcptrace-style metrics from raw packets.
func ExampleAnalyzer() {
	srv := seg.MakeAddr("192.168.1.1", 8080)
	cli := seg.MakeAddr("10.0.0.2", 40000)
	a := trace.NewAnalyzer()

	add := func(ts int64, s *seg.Segment) {
		p, _ := trace.NewPacket(ts, seg.Encode(s))
		a.Add(p)
	}
	add(0, &seg.Segment{Src: srv, Dst: cli, Seq: 1, Flags: seg.ACK, PayloadLen: 1000})
	add(30e6, &seg.Segment{Src: cli, Dst: srv, Ack: 1001, Flags: seg.ACK})

	fs := a.Flows()[0]
	fmt.Printf("%d data pkts, rtt %.0fms\n", fs.DataPkts, fs.RTTms[0])
	// Output:
	// 1 data pkts, rtt 30ms
}
