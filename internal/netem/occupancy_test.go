package netem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// The link's departures are not events: Send and QueuedBytes work out
// which packets have left from the run loop's position (Link.retire).
// This file keeps the retired design as the oracle — eagerLink pays one
// real simulator event per departure and one per arrival, the plainest
// statement of what a link does — and drives both through the same
// random script. They must agree on the queue occupancy every Send
// sees, on every delivery's time and order, and on every counter.

// eagerLink embeds a Link for its configuration, RNG stream and
// counters, and replaces everything that schedules: its Send draws the
// same randomness and the same tie-break sequences in the same order as
// Link.Send, but every packet's departure and arrival is its own event.
//
// byClock turns it into the tempting wrong answer instead — no
// departure event, occupancy read as "every departure with at <= now
// has happened" — which the tests use to show their scripts can tell
// the two apart.
type eagerLink struct {
	*Link
	flying  []*eagerPkt
	byClock bool
	leaving []eagerDeparture // byClock only
}

type eagerDeparture struct {
	at sim.Time
	ws units.ByteCount
}

// eagerPkt is one packet in the air; s is nilled when it lands or when
// SetDown kills it.
type eagerPkt struct{ s *seg.Segment }

func (l *eagerLink) QueuedBytes() units.ByteCount {
	for len(l.leaving) > 0 && l.leaving[0].at <= l.sim.Now() {
		l.queuedBytes -= l.leaving[0].ws
		l.leaving = l.leaving[1:]
	}
	return l.queuedBytes
}

func (l *eagerLink) SetDown(down bool) {
	if down && !l.down {
		for _, p := range l.flying {
			if p.s != nil {
				l.Stats.MediumDrop++
				p.s = nil
			}
		}
		l.flying = l.flying[:0]
	}
	l.down = down
}

func (l *eagerLink) Send(s *seg.Segment, deliver func(*seg.Segment)) {
	if l.down {
		l.Stats.MediumDrop++
		return
	}
	now := l.sim.Now()
	ws := units.ByteCount(s.WireSize())
	if l.QueueLimit > 0 && l.QueuedBytes()+ws > l.QueueLimit {
		l.Stats.QueueDrop++
		return
	}
	l.queuedBytes += ws
	l.txSeq++
	s.TxSeq = l.txSeq

	start := l.busyUntil
	if start < now {
		start = now
	}
	departure := start + l.Rate.TransmitTime(ws)
	l.busyUntil = departure

	arqDelay, survives := l.ARQ.sample(l.rng)
	if survives && l.Loss.Drop(l.rng) {
		survives = false
	}
	arrival := departure + l.PropDelay + arqDelay + l.Jitter.Sample(l.rng)
	if arrival < l.lastArrival {
		arrival = l.lastArrival
	}
	l.lastArrival = arrival

	if l.byClock {
		l.sim.ReserveSlot(departure) // draw the sequence the event would have
		l.leaving = append(l.leaving, eagerDeparture{departure, ws})
	} else {
		l.sim.At(departure, "eager.depart", func() { l.queuedBytes -= ws })
	}
	if !survives {
		l.Stats.MediumDrop++
		return
	}
	if l.Chaos != nil && l.chaosSend(s, ws, arrival, deliver) {
		return
	}
	p := &eagerPkt{s: s}
	l.flying = append(l.flying, p)
	l.sim.At(arrival, "eager.arrive", func() {
		s := p.s
		if s == nil {
			return // killed mid-flight by SetDown
		}
		p.s = nil
		if l.down {
			l.Stats.MediumDrop++
			return
		}
		l.Stats.Sent++
		l.Stats.Bytes += int64(ws)
		deliver(s)
	})
}

// occLink is what the script drives: *Link, or its eager twin.
type occLink interface {
	Send(*seg.Segment, func(*seg.Segment))
	QueuedBytes() units.ByteCount
	SetDown(bool)
}

// occEvent is one thing a world observed. Two worlds that simulate the
// same network produce equal slices.
type occEvent struct {
	what string
	at   sim.Time
	hop  int
	a, b int64
}

// occWorld picks the link implementation a script runs on.
type occWorld int

const (
	lazyWorld  occWorld = iota // *Link, the shipped code
	eagerWorld                 // eagerLink, the reference
	clockWorld                 // eagerLink{byClock}, the wrong answer
)

// occQuantum is the script's time grid: every packet is one or two
// quanta long on a 12 Mbps hop, so senders placed on the grid collide
// with departures to the nanosecond.
const occQuantum = 500 * sim.Microsecond // 750 wire bytes at 12 Mbps

// runOccupancyScript interprets script against a fresh two-hop world
// (hop 0 feeds hop 1) built on world's links, and returns what it
// observed. script[0] picks the impairments; the rest are ops, each
// reading its arguments from the bytes that follow.
func runOccupancyScript(script []byte, world occWorld) (log []occEvent, stats [2]LinkStats, processed uint64) {
	if len(script) == 0 {
		return nil, stats, 0
	}
	s := sim.New()
	rng := sim.NewRNG(int64(len(script))<<8 | int64(script[0]))
	cfg := script[0]
	var raw [2]*Link
	var hop [2]occLink
	for i := range raw {
		l := NewLink(s, rng, fmt.Sprintf("hop%d", i))
		l.Rate = 12 * units.Mbps
		raw[i] = l
		hop[i] = l
		if world != lazyWorld {
			hop[i] = &eagerLink{Link: l, byClock: world == clockWorld}
		}
	}
	raw[0].QueueLimit = 6000
	raw[1].QueueLimit = 3000
	if cfg&1 != 0 {
		raw[0].QueueLimit = 0 // unlimited: departQ must still be retired
		raw[1].QueueLimit = 2250
	}
	if cfg&2 != 0 {
		raw[0].PropDelay = 4 * occQuantum
	}
	if cfg&4 != 0 {
		raw[1].Loss = BernoulliLoss{P: 0.25}
	}
	if cfg&8 != 0 {
		raw[0].ARQ = &ARQ{PLoss: 0.3, MaxRetries: 2, RetryDelay: occQuantum}
	}
	if cfg&16 != 0 {
		raw[0].Chaos = &Chaos{DupProb: 0.2, ReorderProb: 0.2, ExtraDelay: 6 * occQuantum}
	}
	if cfg&32 != 0 {
		raw[1].Chaos = &Chaos{DupProb: 0.2, ReorderProb: 0.2, ExtraDelay: 6 * occQuantum}
	}
	if cfg&64 != 0 {
		raw[1].Jitter = UniformJitter{Lo: 0, Hi: 2 * occQuantum}
	}
	if cfg&128 != 0 {
		// A rate-less first hop departs in the instant it is sent: the
		// departure ties with the sender's own event and only the
		// sequence tells them apart.
		raw[0].Rate = 0
	}

	note := func(what string, h int, a, b int64) {
		log = append(log, occEvent{what, s.Now(), h, a, b})
	}
	probe := func() {
		note("probe", 0, int64(hop[0].QueuedBytes()), int64(hop[1].QueuedBytes()))
	}
	nextID := uint32(0)
	var deliver [2]func(*seg.Segment)
	send := func(h int, payload int) {
		p := mkSeg(payload)
		p.Seq = nextID
		nextID++
		hop[h].Send(p, deliver[h])
		// Read after the Send, so that Send's own retire is what settles
		// the queue (the probes below exercise the accessor's): the
		// occupancy says what was there and whether p was admitted.
		note("send leaves", h, int64(hop[h].QueuedBytes()), int64(p.Seq))
	}
	deliver[1] = func(p *seg.Segment) { note("delivered", 1, int64(p.Seq), int64(p.TxSeq)) }
	deliver[0] = func(p *seg.Segment) {
		note("delivered", 0, int64(p.Seq), int64(p.TxSeq))
		probe() // same-instant arrivals drain inline: the position must follow them
		id := p.Seq
		hop[1].Send(p, deliver[1])
		note("send leaves", 1, int64(hop[1].QueuedBytes()), int64(id))
	}

	cursor := sim.Time(0)
	pos := 0
	next := func() int {
		if pos+1 < len(script) {
			pos++
			return int(script[pos])
		}
		return 0
	}
	for pos+1 < len(script) {
		switch op := next(); op % 6 {
		case 0: // burst of n packets into hop h, with a follow-up sender
			a, b := next(), next()
			h, n, payload := a&1, 1+(a>>1)&7, 710+750*((a>>4)&1)
			follow, delay := b%3, sim.Time((b/3)%8)*occQuantum
			s.At(cursor, "burst", func() {
				// The follow-up lands delay later — for most delays on a
				// departure of this very burst — and is scheduled before
				// the burst's slots are drawn (follow 1: it fires ahead of
				// that departure) or after (follow 2: behind it).
				if follow == 1 {
					s.After(delay, "follow", func() { send(h, payload) })
				}
				for i := 0; i < n; i++ {
					send(h, payload)
				}
				if follow == 2 {
					s.After(delay, "follow", func() { send(h, payload) })
				}
			})
		case 1: // short gap, possibly none
			cursor += sim.Time(next()%8) * occQuantum
		case 2: // long idle gap: queues drain
			cursor += sim.Time(8+next()%64) * occQuantum
		case 3: // outage starts or ends on hop h
			a := next()
			s.At(cursor, "updown", func() { hop[a&1].SetDown(a&2 != 0) })
		case 4: // probe both queues from inside the loop
			s.At(cursor, "probe", probe)
		case 5: // run to the cursor, then act from outside the loop
			a := next()
			s.RunUntil(cursor)
			probe()
			if a&2 != 0 {
				send(a&1, 710)
			}
		}
	}
	s.RunUntil(cursor + sim.Second)
	probe()
	return log, [2]LinkStats{raw[0].Stats, raw[1].Stats}, s.Processed()
}

// checkOccupancyScript runs script in both worlds and reports the first
// observation on which they differ.
func checkOccupancyScript(t *testing.T, script []byte) (packets int, lazyEvents, eagerEvents uint64) {
	t.Helper()
	want, wantStats, eagerEvents := runOccupancyScript(script, eagerWorld)
	got, gotStats, lazyEvents := runOccupancyScript(script, lazyWorld)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			var g any = "nothing"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("script %v: observation %d: lazy link saw %+v, eager reference %+v", script, i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %v: lazy link observed %d things, eager reference %d; first extra %+v", script, len(got), len(want), got[len(want)])
	}
	if gotStats != wantStats {
		t.Fatalf("script %v: LinkStats %+v, eager reference %+v", script, gotStats, wantStats)
	}
	if n := len(got); n > 0 && (got[n-1].a != 0 || got[n-1].b != 0) {
		t.Fatalf("script %v: queues hold %d and %d bytes a second after the last send", script, got[n-1].a, got[n-1].b)
	}
	for _, e := range got {
		if e.what == "send leaves" {
			packets++
		}
	}
	return packets, lazyEvents, eagerEvents
}

// occupancySeeds are scripts for the collisions the design argument
// names, written out so they run on every `go test` and seed the fuzzer.
var occupancySeeds = [][]byte{
	// Equal-rate chain, no propagation delay: six packets into hop 0,
	// each hop-1 Send landing on the previous packet's hop-1 departure;
	// hop 1 holds four, so reading occupancy as "at <= now" admits
	// packets the eager link tail-drops.
	{0, 0, 0x0a, 0, 2, 40},
	{0, 0, 0x1e, 0, 2, 40},
	// A follow-up sender on the burst's first departure, scheduled
	// ahead of it (1+3*1) and behind it (2+3*1), straight into hop 1.
	{0, 0, 0x09, 1 + 3*1, 2, 40},
	{0, 0, 0x09, 2 + 3*1, 2, 40},
	{0, 0, 0x19, 1 + 3*2, 0, 0x19, 2 + 3*2, 2, 40},
	// RunUntil ending exactly on a departure, then a Send from outside
	// the loop; twice, so the second starts from a pushed position.
	{0, 0, 0x07, 0, 1, 1, 5, 3, 1, 2, 5, 3},
	{2, 0, 0x0e, 0, 1, 4, 5, 2, 1, 1, 5, 3, 4},
	// Outage mid-burst on either hop, packets in the air, then recovery.
	{2, 0, 0x0e, 0, 1, 3, 3, 2, 1, 2, 0, 0x06, 0, 3, 0, 0, 0x06, 0},
	{2, 0, 0x0e, 0, 1, 5, 3, 3, 1, 4, 3, 1, 0, 0x0e, 0, 4},
	// Loss, ARQ, jitter and chaos on both hops under sustained bursts.
	{4 | 8 | 64, 0, 0x1e, 5, 1, 2, 0, 0x0e, 7, 4, 1, 1, 0, 0x1f, 0, 4},
	{16 | 32, 0, 0x1e, 4, 1, 3, 0, 0x0e, 8, 4, 0, 0x1e, 0, 1, 1, 5, 2},
	{1 | 2 | 4 | 16, 0, 0x0e, 2, 0, 0x1e, 1, 1, 2, 0, 0x0f, 5, 4, 5, 1},
	// A first hop with no rate: departure in the instant of the Send.
	{128, 0, 0x0e, 1, 0, 0x0e, 2, 4, 1, 0, 5, 2, 0, 0x1e, 4},
	{128 | 1, 0, 0x1e, 0, 0, 0x1e, 0, 1, 1, 0, 0x1e, 5},
}

// TestLinkOccupancyMatchesEagerReference is the property: the seeds
// above, then a few hundred random scripts. It also checks that the
// scripts send a fair number of packets and that the reference still
// pays an event per departure (the next test checks that they collide).
func TestLinkOccupancyMatchesEagerReference(t *testing.T) {
	scripts := slices.Clone(occupancySeeds)
	r := rand.New(rand.NewSource(19))
	for i := 0; i < 400; i++ {
		sc := make([]byte, 4+r.Intn(60))
		r.Read(sc)
		scripts = append(scripts, sc)
	}
	var packets int
	var lazy, eager uint64
	for _, sc := range scripts {
		p, l, e := checkOccupancyScript(t, sc)
		packets += p
		lazy += l
		eager += e
	}
	if packets < 5000 {
		t.Errorf("scripts sent only %d packets", packets)
	}
	// The reference really is the two-event design: its surplus over
	// the lazy link is about one event per packet that entered a queue.
	if eager < lazy+uint64(packets)/2 {
		t.Errorf("eager reference ran %d events against the lazy link's %d over %d sends: it is no longer paying for departures", eager, lazy, packets)
	}
}

// TestOccupancySeedsCatchClockOnlyRetire shows the seed scripts reach
// the case the position argument exists for — a Send executing in the
// very nanosecond of a departure on its own link, ahead of it in
// sequence — by running them against the clock-only reading: it must
// disagree with the reference on most of them. If it stops doing so the
// scripts no longer collide and the property above proves little.
func TestOccupancySeedsCatchClockOnlyRetire(t *testing.T) {
	caught := 0
	for _, sc := range occupancySeeds {
		want, _, _ := runOccupancyScript(sc, eagerWorld)
		got, _, _ := runOccupancyScript(sc, clockWorld)
		if !slices.Equal(got, want) {
			caught++
		}
	}
	if caught < len(occupancySeeds)*2/3 {
		t.Errorf("retiring by at <= now differs from the reference on %d of %d seed scripts; want at least two thirds", caught, len(occupancySeeds))
	}
}

// FuzzLinkOccupancy lets the fuzzer hunt for a script on which reading
// the position differs from paying for the event.
func FuzzLinkOccupancy(f *testing.F) {
	for _, sc := range occupancySeeds {
		f.Add(sc)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		checkOccupancyScript(t, script)
	})
}
