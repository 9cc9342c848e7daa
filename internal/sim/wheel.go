package sim

import "math/bits"

// Hierarchical timing wheel.
//
// TCP stacks arm far more timers than they ever fire: the RTO timer is
// re-armed on every forward ACK, the delayed-ACK timer on most
// segments, and nearly all of those arms are cancelled long before
// expiry. Feeding them through the heap means every arm pays a sift-up
// and every cancel leaves a dead record for the pop loop to discard —
// O(log n) churn for timers that never fire.
//
// The wheel gives timers O(1) arm and O(1) cancel: a pending timer is
// an intrusive doubly-linked node in the slot covering its deadline
// (three levels of 256 slots; level-0 ticks of ~1.05ms cover ~268ms,
// level 1 ~68.7s, level 2 ~4.9h; anything further, or due inside the
// slot currently being flushed, falls back to the heap). Per-level
// occupancy bitmaps let the flush cursor skip empty slots in O(1).
//
// Determinism is preserved by making the wheel a pure holding area:
// timers draw their tie-break seq from the simulator's global counter
// at arm time, and a slot is flushed wholesale into the heap strictly
// before the clock reaches it (flushPos tracks the boundary; peek
// flushes just far enough to cover the heap's head event). The heap's
// (at, seq) comparator therefore always decides final firing order —
// including ties between timers and ordinary events — and the schedule
// is byte-identical to one produced without the wheel. Only the tiny
// fraction of timers that survive to their deadline ever touch the
// heap; the rest are unlinked without it noticing.

const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
	wheelShift0 = 20 // level-0 tick = 2^20 ns ≈ 1.05ms

	tick0 = Time(1) << wheelShift0
	tick1 = Time(1) << (wheelShift0 + wheelBits)
	tick2 = Time(1) << (wheelShift0 + 2*wheelBits)

	horizon0 = tick1                                  // level-0 span ≈ 268ms
	horizon1 = tick2                                  // level-1 span ≈ 68.7s
	horizon2 = Time(1) << (wheelShift0 + 3*wheelBits) // level-2 span ≈ 4.9h
)

func wheelShift(level uint8) uint { return wheelShift0 + uint(level)*wheelBits }

// timerRec is one pending wheel entry. Unlike heap eventRecs it needs
// no generation counter: the only reference outside the wheel is its
// owning Timer's w field, which is nilled the moment the record leaves
// the wheel (cancel, flush, or simulator Reset).
type timerRec struct {
	at    Time
	seq   uint64 // drawn from Simulator.nextSeq at arm time
	owner *Timer
	next  *timerRec
	prev  *timerRec
	level uint8
}

type wheel struct {
	slots    [wheelLevels][wheelSlots]*timerRec
	occupied [wheelLevels][wheelSlots / 64]uint64
	count    int
	// flushPos is level-0-slot-aligned: every slot strictly below it has
	// been flushed into the heap, and every resident record's deadline
	// is at or above it.
	flushPos Time
}

func (s *Simulator) allocTimerRec() *timerRec {
	if n := len(s.freeTimers); n > 0 {
		r := s.freeTimers[n-1]
		s.freeTimers[n-1] = nil
		s.freeTimers = s.freeTimers[:n-1]
		return r
	}
	return &timerRec{}
}

func (s *Simulator) freeTimerRec(r *timerRec) {
	r.owner = nil
	r.next = nil
	r.prev = nil
	s.freeTimers = append(s.freeTimers, r)
}

// wheelInsert files a timer into the slot covering at, or reports false
// when the deadline must go to the heap instead: it lands in an
// already-flushed slot (imminent) or beyond the level-2 horizon.
func (s *Simulator) wheelInsert(at Time, seq uint64, t *Timer) bool {
	w := &s.wheel
	if at&^(tick0-1) < w.flushPos {
		return false
	}
	delta := at - w.flushPos
	var level uint8
	switch {
	case delta < horizon0:
		level = 0
	case delta < horizon1:
		level = 1
	case delta < horizon2:
		level = 2
	default:
		return false
	}
	r := s.allocTimerRec()
	r.at = at
	r.seq = seq
	r.owner = t
	r.level = level
	idx := int(at>>wheelShift(level)) & wheelMask
	head := w.slots[level][idx]
	r.next = head
	r.prev = nil
	if head != nil {
		head.prev = r
	}
	w.slots[level][idx] = r
	w.occupied[level][idx>>6] |= 1 << (idx & 63)
	w.count++
	t.w = r
	return true
}

// wheelRemove unlinks a pending record in O(1). The caller owns the
// live-count and owner bookkeeping.
func (s *Simulator) wheelRemove(r *timerRec) {
	w := &s.wheel
	idx := int(r.at>>wheelShift(r.level)) & wheelMask
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		w.slots[r.level][idx] = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	}
	if w.slots[r.level][idx] == nil {
		w.occupied[r.level][idx>>6] &^= 1 << (idx & 63)
	}
	w.count--
	s.freeTimerRec(r)
}

// flushWheel transfers wheel records into the heap until every record
// that could fire at or before limit is heap-resident (flushPos >
// limit) or the wheel drains. Slots flush strictly before the clock
// reaches them, so slot membership never influences execution order.
func (s *Simulator) flushWheel(limit Time) {
	w := &s.wheel
	for w.count > 0 && w.flushPos <= limit {
		pos := w.flushPos
		// Cascade boundary crossings, coarsest level first: the higher-
		// level slot beginning exactly at pos redistributes its records
		// into finer slots (or straight to level 0).
		if pos&(tick2-1) == 0 {
			s.cascade(2, pos)
		}
		if pos&(tick1-1) == 0 {
			s.cascade(1, pos)
		}
		idx := int(pos>>wheelShift0) & wheelMask
		for r := w.slots[0][idx]; r != nil; {
			next := r.next
			t := r.owner
			e := s.alloc()
			e.at = r.at
			e.seq = r.seq
			e.fn = t.fire
			e.name = t.name
			e.dead = false
			s.push(e)
			t.ev = Event{rec: e, gen: e.gen}
			t.w = nil
			w.count--
			s.wheelFlushes++
			s.freeTimerRec(r)
			r = next
		}
		w.slots[0][idx] = nil
		w.occupied[0][idx>>6] &^= 1 << (idx & 63)
		// Advance past empty level-0 slots in one step, but never skip a
		// cascade boundary: the gap's records may be parked coarser.
		bound := (pos &^ (tick1 - 1)) + tick1
		next := pos + tick0
		if span := int((bound - next) >> wheelShift0); span > 0 {
			if j, ok := w.nextOccupied0(int(next>>wheelShift0)&wheelMask, span); ok {
				next += Time(j) << wheelShift0
			} else {
				next = bound
			}
		}
		w.flushPos = next
	}
}

// cascade redistributes the level slot beginning at pos into finer
// levels. Re-inserted records keep their original (at, seq), so the
// eventual heap order is unchanged.
func (s *Simulator) cascade(level uint8, pos Time) {
	w := &s.wheel
	idx := int(pos>>wheelShift(level)) & wheelMask
	r := w.slots[level][idx]
	if r == nil {
		return
	}
	w.slots[level][idx] = nil
	w.occupied[level][idx>>6] &^= 1 << (idx & 63)
	for r != nil {
		next := r.next
		t := r.owner
		at, seq := r.at, r.seq
		w.count--
		s.freeTimerRec(r)
		// Always lands: delta < the slot's own span, well inside the
		// finer levels' horizons.
		s.wheelInsert(at, seq, t)
		r = next
	}
}

// nextOccupied0 scans the level-0 occupancy bitmap for the first set
// slot in [from, from+span), which never wraps (span is bounded by the
// distance to the next 256-slot boundary). It returns the offset from
// `from`.
func (w *wheel) nextOccupied0(from, span int) (int, bool) {
	for j := 0; j < span; {
		i := from + j
		word := w.occupied[0][i>>6] >> (i & 63)
		if word != 0 {
			off := bits.TrailingZeros64(word)
			if j+off < span {
				return j + off, true
			}
			return 0, false
		}
		j += 64 - (i & 63)
	}
	return 0, false
}

// armTimer schedules a Timer expiry at absolute time at, preferring the
// wheel and falling back to the heap. The seq is drawn from the same
// counter ordinary events use, so timers and events interleave exactly
// as if every arm had been a heap push.
func (s *Simulator) armTimer(t *Timer, at Time) {
	if at < s.now {
		panic("sim: timer " + t.name + " armed in the past")
	}
	seq := s.nextSeq
	s.nextSeq++
	s.live++
	if s.wheel.count == 0 {
		// Empty wheel: re-anchor the flush cursor at the record's own
		// slot so long-idle simulators don't walk a stale cursor.
		s.wheel.flushPos = at &^ (tick0 - 1)
	}
	if s.wheelInsert(at, seq, t) {
		s.wheelArms++
		return
	}
	e := s.alloc()
	e.at = at
	e.seq = seq
	e.fn = t.fire
	e.name = t.name
	e.dead = false
	s.push(e)
	t.ev = Event{rec: e, gen: e.gen}
}

// WheelStats reports cumulative timer-wheel traffic: arms that landed
// in the wheel, cancels unlinked in O(1), and records flushed into the
// heap as their deadline approached. arms − cancels − flushes is the
// current wheel population.
func (s *Simulator) WheelStats() (arms, cancels, flushes uint64) {
	return s.wheelArms, s.wheelCancels, s.wheelFlushes
}

// Reset returns the simulator to its initial state — clock at zero,
// empty schedule, tie-break counter restarted — while keeping the
// event-record and timer-record pools warm. This is the arena-reuse
// hook: a sweep worker can drive thousands of jobs through one
// Simulator without reallocating its pools, and because nextSeq
// restarts at zero a run on a reused simulator produces a schedule
// byte-identical to the same run on a fresh one. Event handles and
// timers from before the Reset become stale. Resetting inside a run
// loop panics.
func (s *Simulator) Reset() {
	if s.running {
		panic("sim: Reset inside a run loop")
	}
	for _, e := range s.queue {
		s.recycle(e)
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	w := &s.wheel
	if w.count > 0 {
		for l := 0; l < wheelLevels; l++ {
			for wi, word := range w.occupied[l] {
				for word != 0 {
					b := bits.TrailingZeros64(word)
					word &^= 1 << b
					idx := wi<<6 + b
					for r := w.slots[l][idx]; r != nil; {
						next := r.next
						if r.owner != nil {
							r.owner.w = nil
							r.owner.ev = Event{}
						}
						s.freeTimerRec(r)
						r = next
					}
					w.slots[l][idx] = nil
				}
				w.occupied[l][wi] = 0
			}
		}
	}
	w.count = 0
	w.flushPos = 0
	s.now = 0
	s.pos = Slot{}
	s.live = 0
	s.nextSeq = 0
	s.ran = 0
	s.stopped = false
	s.watchFn = nil
	s.abortErr = nil
}
