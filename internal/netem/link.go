package netem

import (
	"fmt"

	"mptcplab/internal/seg"
	"mptcplab/internal/sim"
	"mptcplab/internal/units"
)

// ARQ models cellular link-layer retransmission: radio-frame loss is
// hidden from TCP by local retransmissions (paper §2.1), which convert
// loss into delay and rate variability. A packet whose retries are
// exhausted is dropped (residual loss, ~PLoss^(MaxRetries+1)).
type ARQ struct {
	PLoss      float64  // per-attempt radio loss probability
	MaxRetries int      // local retransmissions before giving up
	RetryDelay sim.Time // added delay per retransmission attempt
}

// sample returns the extra delay ARQ recovery adds to one packet and
// whether the packet survives.
func (a *ARQ) sample(rng *sim.RNG) (extra sim.Time, ok bool) {
	if a == nil || a.PLoss <= 0 {
		return 0, true
	}
	for try := 0; ; try++ {
		if !rng.Bool(a.PLoss) {
			return extra, true
		}
		if try >= a.MaxRetries {
			return extra, false
		}
		extra += a.RetryDelay
	}
}

// LinkStats counts a link's lifetime activity.
type LinkStats struct {
	Sent       uint64 // packets delivered to the far end
	MediumDrop uint64 // lost to the loss model / ARQ exhaustion
	QueueDrop  uint64 // tail-dropped at the queue
	Bytes      int64  // payload+header bytes delivered
}

// Link is a one-directional packet pipe: a rate-limited server draining
// a drop-tail byte queue, followed by fixed propagation delay plus
// per-packet jitter, with optional medium loss, ARQ, and a shared
// cellular radio gate. Links preserve FIFO ordering.
//
// Deep queues on slow links are what produce cellular "bufferbloat":
// the queueing delay cwnd/Rate emerges exactly as in the measured
// networks, growing with flow size as Tables 2/5 show.
type Link struct {
	Name       string
	Rate       units.BitRate
	PropDelay  sim.Time
	QueueLimit units.ByteCount // max queued bytes; 0 means unlimited
	Loss       LossModel
	Jitter     DelayModel
	ARQ        *ARQ
	Radio      *Radio

	// Chaos, when non-nil, injects adversarial behaviours (duplication,
	// reordering) that deliberately break the link's FIFO contract. It
	// exists for the invariant fuzzer; nil costs nothing and draws no
	// randomness, so normal runs are bit-identical with the field absent.
	Chaos *Chaos

	// OnBadOwnership, when non-nil, is called instead of panicking when
	// the link detects that an in-flight segment was recycled before its
	// arrival event fired (a pool use-after-release upstream). The
	// invariant checker arms this to record the violation.
	OnBadOwnership func(link string, s *seg.Segment)

	Stats LinkStats

	// down models a connectivity outage (walking out of WiFi range):
	// every packet is dropped while set.
	down bool

	sim *sim.Simulator
	rng *sim.RNG

	busyUntil   sim.Time
	queuedBytes units.ByteCount
	lastArrival sim.Time
	txSeq       uint64

	// pool receives segments the link kills (queue drop, medium loss,
	// outage). Wired by Network.AddRoute; nil (a no-op) for standalone
	// links driven directly by tests.
	pool *seg.Pool

	// Per-packet state rides in two FIFO rings, each entry holding the
	// (at, seq) slot reserved for it at Send time, so Send allocates no
	// closure and no event-name string per packet. arriveQ keeps at
	// most ONE event in the simulator's heap — its head — and when that
	// fires, onArrive drains every entry due at the same instant inline
	// before scheduling the next head: the heap stays O(links), not
	// O(packets in flight). departQ keeps none: a departure only frees
	// queue bytes, which only Send's tail-drop check and QueuedBytes
	// read, so its slot is never scheduled — retire pops every head the
	// run loop has passed just before the counter is read. Each reader
	// sees what one event per packet would have shown it. See ring, and
	// sim.Slot for the ordering argument.
	arriveName string
	onArrive   func()
	departQ    ring[departRec]
	arriveQ    ring[arrivalRec]
}

// departRec is one queued packet's serialization accounting: popped by
// retire once the rate limiter has finished with it.
type departRec struct {
	ws   units.ByteCount
	slot sim.Slot
}

// arrivalRec is one in-flight packet: popped by the link's arrive
// callback when its propagation delay elapses. gen snapshots the
// segment's pool generation at push so the pop can detect that the
// segment was recycled while in flight (linear-ownership violation).
// A nil s is a tombstone: the packet was killed by SetDown mid-flight.
type arrivalRec struct {
	s       *seg.Segment
	ws      units.ByteCount
	gen     uint32
	slot    sim.Slot
	deliver func(*seg.Segment)
}

// Chaos configures adversarial packet handling on a Link. All
// probabilities are per-packet; randomness is drawn from the link's own
// RNG stream only when Chaos is non-nil, so enabling it perturbs no
// other stream.
type Chaos struct {
	// DupProb delivers an extra cloned copy of the packet at its normal
	// arrival time (the receiver sees the segment twice).
	DupProb float64
	// ReorderProb routes the packet around the FIFO rings through its
	// own closure event with up to ExtraDelay added, so later packets
	// can overtake it (extreme reordering).
	ReorderProb float64
	// ExtraDelay bounds the extra delay given to reordered packets.
	ExtraDelay sim.Time
}

// NewLink wires a link to its simulator and RNG stream. Loss and
// Jitter default to NoLoss / NoJitter when nil.
func NewLink(s *sim.Simulator, rng *sim.RNG, name string) *Link {
	l := &Link{
		Name:       name,
		Loss:       NoLoss{},
		Jitter:     NoJitter{},
		sim:        s,
		rng:        rng.Child("link/" + name),
		arriveName: "link.arrive:" + name,
	}
	l.onArrive = func() {
		for {
			l.arrive(l.arriveQ.pop())
			if l.arriveQ.len() == 0 {
				return
			}
			h := l.arriveQ.at(0)
			if !l.sim.ConsumeSlot(h.slot) {
				l.sim.ScheduleSlot(h.slot, l.arriveName, l.onArrive)
				return
			}
		}
	}
	return l
}

// arrive completes one popped in-flight packet: tombstone and
// ownership checks, outage kill, then delivery to the far end.
func (l *Link) arrive(a arrivalRec) {
	if a.s == nil {
		// Tombstone: SetDown killed this packet mid-flight; it was
		// counted and released at that moment.
		return
	}
	if a.s.Pooled() || a.s.Gen() != a.gen {
		l.badOwnership(a.s)
		return
	}
	// An outage that began after this packet was sent still kills
	// it: frames in the air die with the radio.
	if l.down {
		l.Stats.MediumDrop++
		l.pool.Put(a.s)
		return
	}
	l.Stats.Sent++
	l.Stats.Bytes += int64(a.ws)
	a.deliver(a.s)
}

// retire frees the queue bytes of every packet whose departure slot
// the run loop has passed.
func (l *Link) retire() {
	for l.departQ.len() > 0 && l.sim.Passed(l.departQ.at(0).slot) {
		l.queuedBytes -= l.departQ.pop().ws
	}
}

// QueuedBytes reports the current queue occupancy.
func (l *Link) QueuedBytes() units.ByteCount {
	l.retire()
	return l.queuedBytes
}

// QueueDelay reports the delay a packet entering now would wait before
// its serialization begins.
func (l *Link) QueueDelay() sim.Time {
	now := l.sim.Now()
	if l.busyUntil <= now {
		return 0
	}
	return l.busyUntil - now
}

// SetDown starts or ends a connectivity outage: while down, the link
// drops every packet, as a WiFi NIC out of range would. Used by the
// mobility/handover scenarios (§6).
//
// Starting an outage also kills packets already in the air: their
// segments are released to the pool immediately and counted as medium
// drops, and the already-scheduled arrive events pop tombstoned
// records. Without this, a segment queued before the outage would be
// delivered after it began.
func (l *Link) SetDown(down bool) {
	if down && !l.down {
		for i := 0; i < l.arriveQ.len(); i++ {
			a := l.arriveQ.at(i)
			if a.s == nil {
				continue
			}
			l.Stats.MediumDrop++
			l.pool.Put(a.s)
			a.s = nil
			a.deliver = nil
		}
	}
	l.down = down
}

// SetUp ends an outage; shorthand for SetDown(false).
func (l *Link) SetUp() { l.SetDown(false) }

// badOwnership reports a use-after-release detected at arrival.
func (l *Link) badOwnership(s *seg.Segment) {
	if l.OnBadOwnership != nil {
		l.OnBadOwnership(l.Name, s)
		return
	}
	panic("netem: in-flight segment on " + l.Name + " was recycled before arrival (pool use-after-release)")
}

// IsDown reports whether the link is in an outage.
func (l *Link) IsDown() bool { return l.down }

// Send enqueues s. If it survives the queue and the medium, deliver is
// invoked at the packet's arrival time at the far end; otherwise the
// segment is released to the link's pool (if any). Departures and
// arrivals ride per-link FIFO rings and one shared callback, so the
// steady-state send path allocates nothing.
func (l *Link) Send(s *seg.Segment, deliver func(*seg.Segment)) {
	if l.down {
		l.Stats.MediumDrop++
		l.pool.Put(s)
		return
	}
	now := l.sim.Now()
	ws := units.ByteCount(s.WireSize())

	l.retire()
	if l.QueueLimit > 0 && l.queuedBytes+ws > l.QueueLimit {
		l.Stats.QueueDrop++
		l.pool.Put(s)
		return
	}
	l.queuedBytes += ws
	l.txSeq++
	s.TxSeq = l.txSeq

	start := l.busyUntil
	if start < now {
		start = now
	}
	if l.Radio != nil {
		if at := l.Radio.AvailableAt(); at > start {
			start = at
		}
	}
	departure := start + l.Rate.TransmitTime(ws)
	l.busyUntil = departure

	arqDelay, survives := l.ARQ.sample(l.rng)
	if survives && l.Loss != nil && l.Loss.Drop(l.rng) {
		survives = false
	}

	arrival := departure + l.PropDelay + arqDelay + l.Jitter.Sample(l.rng)
	if arrival < l.lastArrival {
		arrival = l.lastArrival // FIFO: no reordering within a link
	}
	l.lastArrival = arrival

	// Slot reservations replace eager heap events: each draws the
	// tie-break sequence an eager event would have, so execution order
	// is unchanged. The departure's is only ever compared (retire); of
	// the arrivals only the ring's head is heap-resident.
	l.departQ.push(departRec{ws: ws, slot: l.sim.ReserveSlot(departure)})
	if !survives {
		l.Stats.MediumDrop++
		l.pool.Put(s)
		return
	}
	if l.Chaos != nil && l.chaosSend(s, ws, arrival, deliver) {
		return
	}
	l.arriveQ.push(arrivalRec{s: s, ws: ws, gen: s.Gen(), slot: l.sim.ReserveSlot(arrival), deliver: deliver})
	if l.arriveQ.len() == 1 {
		l.sim.ScheduleSlot(l.arriveQ.at(0).slot, l.arriveName, l.onArrive)
	}
}

// chaosSend applies the link's Chaos config to a surviving packet.
// It returns true when it took over the packet's delivery (the caller
// must not push it through the FIFO rings). Chaos deliveries run as
// dedicated closure events because the ring contract requires strictly
// FIFO firing; these packets deliberately break it. They re-check the
// outage flag at fire time, but are invisible to the SetDown drain.
func (l *Link) chaosSend(s *seg.Segment, ws units.ByteCount, arrival sim.Time, deliver func(*seg.Segment)) bool {
	c := l.Chaos
	if c.DupProb > 0 && l.rng.Bool(c.DupProb) {
		dup := s.Clone()
		l.sim.At(arrival, l.arriveName, func() {
			if l.down {
				l.Stats.MediumDrop++
				l.pool.Put(dup)
				return
			}
			l.Stats.Sent++
			l.Stats.Bytes += int64(ws)
			deliver(dup)
		})
	}
	if c.ReorderProb > 0 && l.rng.Bool(c.ReorderProb) {
		at := arrival
		if c.ExtraDelay > 0 {
			at += sim.Time(l.rng.Float64() * float64(c.ExtraDelay))
		}
		l.sim.At(at, l.arriveName, func() {
			if l.down {
				l.Stats.MediumDrop++
				l.pool.Put(s)
				return
			}
			l.Stats.Sent++
			l.Stats.Bytes += int64(ws)
			deliver(s)
		})
		return true
	}
	return false
}

// String describes the link.
func (l *Link) String() string {
	return fmt.Sprintf("%s(%v, %v prop, %v queue)", l.Name, l.Rate, l.PropDelay, l.QueueLimit)
}
