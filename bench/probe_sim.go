package main

import (
	"fmt"
	"time"

	"mptcplab/internal/netem"
	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// probeSim times the event queue alone: schedule+dispatch at heap
// depth 1 and in the hold model at depth 4,096, a Timer.Reset storm
// (the RTO re-arm on every ACK), RNG seeding, and Simulator.Reset.
func probeSim(*probeEnv) (map[string]float64, error) {
	out := map[string]float64{}
	fn := func() {}

	s := sim.New()
	out["sim.event_ns"] = nsPerOp(1_000_000, func(int) {
		s.After(sim.Microsecond, "e", fn)
		s.Step()
	})

	// Hold model: pop the earliest of 4,096 pending events, schedule a
	// new one a pseudo-random distance ahead, so every push and pop
	// works against a full heap.
	s = sim.New()
	const depth, span = 4096, uint64(4096 * sim.Millisecond)
	x := uint64(12345)
	next := func() sim.Time {
		x = splitmix64(x)
		return sim.Time(x % span)
	}
	for i := 0; i < depth; i++ {
		s.After(next(), "e", fn)
	}
	out["sim.event_ns_depth4k"] = nsPerOp(500_000, func(int) {
		s.Step()
		s.After(next(), "e", fn)
	})

	s = sim.New()
	timers := make([]*sim.Timer, 1024)
	for i := range timers {
		timers[i] = sim.NewTimer(s, "rto", fn)
	}
	out["sim.timer_reset_ns"] = nsPerOp(1_000_000, func(i int) {
		timers[i&1023].Reset(200*sim.Millisecond + sim.Time(i&7)*sim.Millisecond)
	})

	out["sim.rng_seed_us"] = nsPerOp(5_000, func(i int) {
		sim.NewRNG(int64(i)).Child("wifi")
	}) / 1e3

	// Reset after a run's worth of leftovers: pending events and armed
	// timers that the reset has to return to the pools.
	s = sim.New()
	var resetNS int64
	const resets = 2000
	for i := 0; i < resets; i++ {
		for k := 0; k < 64; k++ {
			s.After(sim.Time(k)*sim.Millisecond, "e", fn)
		}
		for k := 0; k < 16; k++ {
			sim.NewTimer(s, "t", fn).Reset(sim.Second)
		}
		t0 := time.Now()
		s.Reset()
		resetNS += time.Since(t0).Nanoseconds()
	}
	out["sim.reset_us"] = float64(resetNS) / resets / 1e3
	return out, nil
}

type sinkHandler struct{ got int }

func (h *sinkHandler) Receive(*seg.Segment) { h.got++ }

// sendPackets pushes n MSS-sized segments from one host to another
// over the given forward hops, one every 20 µs of simulated time (an
// open loop, so lossy hops do not starve the sender), and returns host
// nanoseconds per packet and the share of packets the hops dropped.
func sendPackets(n int, hops func(s *sim.Simulator, rng *sim.RNG) []*netem.Link) (nsPerPkt, dropShare float64, err error) {
	s := sim.New()
	rng := sim.NewRNG(1)
	nw := netem.NewNetwork(s)
	a, b := nw.NewHost("a"), nw.NewHost("b")
	src, dst := seg.MakeAddr("10.0.0.1", 1000), seg.MakeAddr("10.0.0.2", 2000)
	back := netem.NewLink(s, rng, "back")
	back.Rate = units.Gbps
	forward := hops(s, rng)
	nw.AddDuplexRoute(src.IP, dst.IP, a, b, forward, []*netem.Link{back})
	sink := &sinkHandler{}
	b.Bind(dst, src, sink)

	sent := 0
	var tick func()
	tick = func() {
		p := a.NewSegment()
		p.Src, p.Dst, p.Flags, p.PayloadLen = src, dst, seg.ACK, 1460
		p.Seq = uint32(sent) * 1460
		a.Send(p)
		if sent++; sent < n {
			s.After(20*sim.Microsecond, "send", tick)
		}
	}
	s.After(0, "send", tick)
	t0 := time.Now()
	s.Run()
	ns := float64(time.Since(t0).Nanoseconds()) / float64(n)

	var dropped uint64
	for _, l := range forward {
		dropped += l.Stats.MediumDrop + l.Stats.QueueDrop
	}
	if sink.got+int(dropped) != n {
		return 0, 0, fmt.Errorf("netem probe: %d delivered + %d dropped of %d sent", sink.got, dropped, n)
	}
	return ns, float64(dropped) / float64(n), nil
}

func cleanLink(s *sim.Simulator, rng *sim.RNG, name string) *netem.Link {
	l := netem.NewLink(s, rng, name)
	l.Rate = units.Gbps
	l.PropDelay = sim.Millisecond
	l.QueueLimit = 16 * units.MB
	return l
}

// probeNetem times Host.Send → route → link(s) → Host.Deliver per
// packet: one clean hop, three clean hops, and one hop with log-normal
// jitter, Bernoulli loss and link-layer ARQ.
func probeNetem(*probeEnv) (map[string]float64, error) {
	const n = 200_000
	out := map[string]float64{}
	var err error
	if out["netem.pkt_ns_1hop"], _, err = sendPackets(n, func(s *sim.Simulator, rng *sim.RNG) []*netem.Link {
		return []*netem.Link{cleanLink(s, rng, "h1")}
	}); err != nil {
		return nil, err
	}
	if out["netem.pkt_ns_3hop"], _, err = sendPackets(n, func(s *sim.Simulator, rng *sim.RNG) []*netem.Link {
		return []*netem.Link{cleanLink(s, rng, "h1"), cleanLink(s, rng, "h2"), cleanLink(s, rng, "h3")}
	}); err != nil {
		return nil, err
	}
	out["netem.pkt_ns_impaired"], out["netem.drop_share"], err = sendPackets(n, func(s *sim.Simulator, rng *sim.RNG) []*netem.Link {
		l := cleanLink(s, rng, "radio")
		l.Jitter = netem.LogNormalJitter{Mu: 1.1, Sigma: 0.8, Max: 300 * sim.Millisecond}
		l.Loss = netem.BernoulliLoss{P: 0.02}
		l.ARQ = &netem.ARQ{PLoss: 0.07, MaxRetries: 3, RetryDelay: 8 * sim.Millisecond}
		return []*netem.Link{l}
	})
	return out, err
}

// probeSeg times the segment pool and the wire codec. The codec is
// the pcap-tap path only — the simulator's hot path never serialises —
// so it is listed to keep that claim checked, not because anything
// end to end should follow it.
func probeSeg(*probeEnv) (map[string]float64, error) {
	out := map[string]float64{}
	var pool seg.Pool
	out["seg.pool_getput_ns"] = nsPerOp(2_000_000, func(int) {
		pool.Put(pool.Get())
	})

	s := &seg.Segment{
		Src: seg.MakeAddr("10.0.0.2", 40000), Dst: seg.MakeAddr("192.168.1.1", 8080),
		Seq: 12345, Ack: 67890, Flags: seg.ACK, Window: 31000, PayloadLen: 1460,
	}
	s.AddDSS(seg.DSSOption{HasMap: true, HasAck: true, DataSeq: 1 << 33, Length: 1460})
	scratch := seg.AppendEncode(nil, s)
	var derr error
	out["seg.encode_decode_ns"] = nsPerOp(200_000, func(int) {
		scratch = seg.AppendEncode(scratch[:0], s)
		if _, err := seg.Decode(scratch); err != nil {
			derr = err
		}
	})
	return out, derr
}
