package sim

// Reserved slots: batched scheduling for components with FIFO work.
//
// A netem link keeps per-packet state in FIFO rings whose entries come
// due in exactly push order (departure and arrival times are monotone
// per link). Scheduling a heap event per packet makes the heap
// O(packets in flight); a slot lets such a component draw the (at, seq)
// position an eager event would have received and then do the least the
// entry needs: one that runs code (an arrival) is materialized only
// while it is the FIFO head, and one that is pure bookkeeping (a
// departure freeing queue bytes) never — its owner asks Passed when it
// next reads the state. The heap stays O(links + timers), and because
// the stored (at, seq) is exactly what the eager schedule would have
// used, what every handler observes is byte-identical.
//
// The fleet engine's open-loop arrivals are the second user: their
// times are drawn and sorted before the run starts, so every arrival's
// slot is reserved at wiring time and only the next one is scheduled,
// each as its predecessor fires — one pending event for a whole run's
// arrivals.

// Slot is a reserved position in the schedule: an absolute deadline
// plus the tie-break sequence drawn at reservation time. The zero Slot
// is not a valid reservation.
type Slot struct {
	at  Time
	seq uint64
}

// ReserveSlot draws the position an event scheduled now for time at
// would occupy, without pushing anything onto the heap. A slot that
// must run code is materialized with ScheduleSlot (or retired with
// ConsumeSlot) before the run loop passes its position — in practice
// by scheduling its FIFO head whenever the previous head fires, which
// is always in time because a FIFO's (at, seq) pairs are monotone. A
// slot that only marks a moment is never scheduled, just compared with
// Passed. Abandoning a reservation (e.g. the packet was dropped) is
// safe: sequence numbers only order events, and gaps cost nothing.
func (s *Simulator) ReserveSlot(at Time) Slot {
	if at < s.now {
		panic("sim: slot reserved in the past")
	}
	sl := Slot{at: at, seq: s.nextSeq}
	s.nextSeq++
	return sl
}

// Passed reports whether an event scheduled eagerly at sl would have
// fired by now: sl orders strictly before the executing event's own
// position (moved by Step and ConsumeSlot, pushed past the deadline's
// whole instant by a RunUntil that runs dry, rewound by Reset). Not
// sl.at <= Now(): that cannot split a same-nanosecond tie.
func (s *Simulator) Passed(sl Slot) bool {
	return sl.at < s.pos.at || (sl.at == s.pos.at && sl.seq < s.pos.seq)
}

// ScheduleSlot materializes a reserved slot as a pending event, firing
// fn at the slot's stored (at, seq) position exactly as if it had been
// scheduled eagerly at reservation time.
func (s *Simulator) ScheduleSlot(sl Slot, name string, fn func()) Event {
	if sl.at < s.now {
		panic("sim: slot " + name + " scheduled after its deadline passed")
	}
	e := s.alloc()
	e.at = sl.at
	e.seq = sl.seq
	e.fn = fn
	e.name = name
	e.dead = false
	s.push(e)
	s.live++
	return Event{rec: e, gen: e.gen}
}

// ConsumeSlot retires a reserved slot inline, skipping the heap
// round-trip, and reports whether it did. It succeeds only when the
// slot would have been the very next event executed anyway: its
// deadline is exactly now and no pending event orders before it.
// Callers use it from inside the event handler that fired their
// previous FIFO head, draining a same-instant burst in one call; on
// false they must ScheduleSlot instead. A consumed slot counts toward
// Processed, so event accounting matches the eager schedule exactly.
//
// The wheel needs no scan here: every timer due at or before now was
// flushed to the heap before the currently executing event was popped,
// and any timer armed since draws a later sequence than a slot
// reserved in the past, so it cannot order before one.
func (s *Simulator) ConsumeSlot(sl Slot) bool {
	if sl.at != s.now || s.stopped {
		return false
	}
	for len(s.queue) > 0 {
		h := s.queue[0]
		if !h.dead {
			if h.at < sl.at || (h.at == sl.at && h.seq < sl.seq) {
				return false
			}
			break
		}
		s.pop()
		s.recycle(h)
	}
	s.pos = sl
	s.ran++
	return true
}
