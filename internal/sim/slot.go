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
// slot would have been the very next event executed anyway, so the
// execution order is the heap's own by construction:
//
//   - the slot is due now, or — inside Run/RunUntil, not Step — later
//     but no later than the loop's deadline; the clock then advances
//     to it, as the run loop would have;
//   - the loop is not stopped and the watchdog is not due (a consumed
//     slot counts toward the watchdog's countdown as a popped event
//     does, so a source that keeps re-reserving still hands the loop
//     back in time for the check);
//   - nothing orders before it: not the heap's live head, and not a
//     wheel timer — when the heap's head orders after the slot, the
//     wheel is flushed up to the slot, exactly as peek would flush it
//     before popping the slot as the head, and the head looked at
//     again. A same-instant slot needs the flush too: a timer armed on
//     an empty wheel anchors the flush cursor at its own tick, so a
//     timer due now can sit in the wheel with a sequence below a slot
//     that was reserved after it.
//
// Callers use it from inside the event handler that fired their
// previous FIFO head, draining a chain of due entries in one call; on
// false they must ScheduleSlot instead. A consumed slot counts toward
// Processed, so event accounting matches the eager schedule exactly.
func (s *Simulator) ConsumeSlot(sl Slot) bool {
	if s.stopped || sl.at != s.now && (!s.running || sl.at < s.now || sl.at > s.until) {
		return false
	}
	if !s.headAfter(sl) {
		return false
	}
	if s.wheel.count > 0 && sl.at >= s.wheel.flushPos {
		s.flushWheel(sl.at)
		if !s.headAfter(sl) {
			return false
		}
	}
	if s.running && s.watchFn != nil {
		if s.watchLeft <= 1 {
			return false
		}
		s.watchLeft--
	}
	s.now = sl.at
	s.pos = sl
	s.ran++
	return true
}

// headAfter discards dead records from the head of the queue and
// reports whether no live record orders before sl.
func (s *Simulator) headAfter(sl Slot) bool {
	for len(s.queue) > 0 {
		h := s.queue[0]
		if !h.dead {
			return !(h.at < sl.at || (h.at == sl.at && h.seq < sl.seq))
		}
		s.pop()
		s.recycle(h)
	}
	return true
}
