// Package sim provides a deterministic discrete-event simulation engine.
//
// A Simulator owns a virtual clock and a priority queue of pending
// events. Components schedule callbacks at absolute or relative virtual
// times; the Run loop executes them in timestamp order. Ties are broken
// by scheduling order, so a simulation is fully reproducible given the
// same inputs and RNG seeds.
//
// The engine is single-threaded by design: network protocol state
// machines are much easier to reason about (and to debug) when every
// event handler runs to completion before the next one starts. All of
// mptcplab's substrates (queues, links, TCP endpoints, MPTCP
// connections, applications) are driven by one Simulator instance.
//
// The hot path is allocation-free: event records live in a per-
// simulator free-list pool and are recycled after they fire or are
// discarded, the priority queue is a concrete 4-ary min-heap over
// those pooled records (no container/heap, no interface boxing), and
// cancellation is lazy — Cancel marks the record dead in O(1) and the
// pop loop discards it, instead of paying an O(log n) heap removal.
// Generation counters make recycling safe: an Event handle held after
// its record was recycled can no longer cancel (or observe) the new
// occupant.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp, measured as a duration since the start
// of the simulation. It is a distinct type so that wall-clock values
// cannot be mixed in by accident.
type Time time.Duration

// Common virtual-time constants.
const (
	Millisecond Time = Time(time.Millisecond)
	Microsecond Time = Time(time.Microsecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)

	// MaxTime is the largest representable virtual time. It is used as
	// an "infinite" deadline by timers that are currently disabled.
	MaxTime Time = Time(math.MaxInt64)
)

// Duration converts t to a time.Duration since simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t in (fractional) seconds.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Milliseconds reports t in (fractional) milliseconds.
func (t Time) Milliseconds() float64 {
	return float64(time.Duration(t)) / float64(time.Millisecond)
}

// String formats the time like a time.Duration.
func (t Time) String() string { return time.Duration(t).String() }

// eventRec is one pooled event record. Records are allocated once and
// recycled through the simulator's free list; gen is bumped on every
// recycle so stale Event handles cannot touch the new occupant.
type eventRec struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	fn   func()
	name string // for debugging
	gen  uint32
	dead bool // cancelled; discarded at pop
}

// Event is a handle to a scheduled callback. The zero Event is invalid
// and safe to Cancel (a no-op). Handles are values: they stay cheap to
// copy and, thanks to the generation counter, become inert once the
// underlying record fires, is cancelled, or is recycled.
type Event struct {
	rec *eventRec
	gen uint32
}

// live reports whether the handle still refers to the record's current
// occupancy.
func (e Event) live() bool { return e.rec != nil && e.rec.gen == e.gen }

// Time reports when the event will fire, or MaxTime if the handle is
// stale (fired, cancelled and recycled, or zero).
func (e Event) Time() Time {
	if !e.live() {
		return MaxTime
	}
	return e.rec.at
}

// Name reports the debug label given at scheduling time, or "" for a
// stale handle.
func (e Event) Name() string {
	if !e.live() {
		return ""
	}
	return e.rec.name
}

// Cancelled reports whether Cancel was called on the event while its
// handle was still live.
func (e Event) Cancelled() bool { return e.live() && e.rec.dead }

// Simulator is a discrete-event scheduler with a virtual clock.
// The zero value is ready to use.
type Simulator struct {
	now Time
	// pos is the (at, seq) of the event executing now, or executed
	// last: everything before it has fired, nothing after. See Passed.
	pos     Slot
	queue   []*eventRec // 4-ary min-heap by (at, seq)
	free    []*eventRec // recycled records
	live    int         // queued, not-cancelled events
	nextSeq uint64
	ran     uint64
	running bool
	stopped bool

	// Watchdog state: watchFn is invoked every watchEvery processed
	// events inside Run/RunUntil; a non-nil return aborts the loop and
	// is reported by AbortErr. The per-event cost when no watchdog is
	// installed is a single nil check.
	watchFn    func() error
	watchEvery uint64
	watchLeft  uint64
	abortErr   error

	// Timer wheel (see wheel.go): pending Timer expiries park here in
	// O(1) and only migrate to the heap just before their deadline.
	wheel        wheel
	freeTimers   []*timerRec
	wheelArms    uint64
	wheelCancels uint64
	wheelFlushes uint64
}

// New returns a fresh Simulator with its clock at zero.
func New() *Simulator { return &Simulator{} }

// Now reports the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed reports how many events have been executed so far.
func (s *Simulator) Processed() uint64 { return s.ran }

// Pending reports how many live (not cancelled) events are queued.
// Cancelled events awaiting lazy discard are excluded.
func (s *Simulator) Pending() int { return s.live }

// alloc takes a record from the free list, or makes a new one.
func (s *Simulator) alloc() *eventRec {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &eventRec{}
}

// recycle bumps the record's generation (invalidating outstanding
// handles) and returns it to the free list.
func (s *Simulator) recycle(e *eventRec) {
	e.gen++
	e.fn = nil
	e.name = ""
	e.dead = false
	s.free = append(s.free, e)
}

// At schedules fn to run at absolute virtual time at. Scheduling in the
// past (before Now) panics: that is always a protocol-logic bug and
// silently reordering events would corrupt causality.
func (s *Simulator) At(at Time, name string, fn func()) Event {
	if at < s.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, at, s.now))
	}
	e := s.alloc()
	e.at = at
	e.seq = s.nextSeq
	e.fn = fn
	e.name = name
	e.dead = false
	s.nextSeq++
	s.push(e)
	s.live++
	return Event{rec: e, gen: e.gen}
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d Time, name string, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, name, fn)
}

// Cancel removes e from the schedule. The removal is lazy: the record
// is marked dead in O(1) and discarded when it reaches the head of the
// queue. Cancelling a zero, stale (already fired or already recycled),
// or already-cancelled handle is a no-op.
func (s *Simulator) Cancel(e Event) {
	if !e.live() || e.rec.dead {
		return
	}
	e.rec.dead = true
	s.live--
}

// Stop makes Run return after the currently executing event handler
// (if any) completes.
func (s *Simulator) Stop() { s.stopped = true }

// SetWatchdog installs fn, called once every `every` processed events
// during Run/RunUntil/RunFor. If fn returns a non-nil error, the run
// loop stops immediately and AbortErr reports the error — the hook the
// chaos harness uses for wall-clock deadlines and livelock detection
// (a simulation burning events without advancing virtual time).
// A nil fn removes the watchdog. every defaults to 65536 when <= 0.
func (s *Simulator) SetWatchdog(every uint64, fn func() error) {
	if every == 0 {
		every = 1 << 16
	}
	s.watchFn = fn
	s.watchEvery = every
	s.watchLeft = every
}

// AbortErr reports the error that aborted the last run loop via the
// watchdog, or nil. It stays set until the next Run/RunUntil starts.
func (s *Simulator) AbortErr() error { return s.abortErr }

// watchdogTripped runs the watchdog countdown after one processed
// event and reports whether the run loop must abort.
func (s *Simulator) watchdogTripped() bool {
	s.watchLeft--
	if s.watchLeft > 0 {
		return false
	}
	s.watchLeft = s.watchEvery
	if err := s.watchFn(); err != nil {
		s.abortErr = err
		return true
	}
	return false
}

// peek discards dead records from the head of the queue, flushes any
// wheel slots the head event could collide with, and returns the next
// live event, or nil if none remain anywhere.
func (s *Simulator) peek() *eventRec {
	for {
		var e *eventRec
		for len(s.queue) > 0 {
			h := s.queue[0]
			if !h.dead {
				e = h
				break
			}
			s.pop()
			s.recycle(h)
		}
		// Wheel records all have deadlines at or above flushPos, so a
		// heap head strictly below it is globally next.
		if s.wheel.count == 0 || (e != nil && e.at < s.wheel.flushPos) {
			return e
		}
		limit := MaxTime
		if e != nil {
			limit = e.at
		}
		s.flushWheel(limit)
	}
}

// Step executes the single next event, if any, and reports whether one
// was executed.
func (s *Simulator) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.exec(e)
	return true
}

// exec pops and runs e, the head record peek just returned.
func (s *Simulator) exec(e *eventRec) {
	s.pop()
	s.now = e.at
	s.pos = Slot{at: e.at, seq: e.seq}
	s.live--
	s.ran++
	fn := e.fn
	// Recycle before running: the handler may schedule (reusing this
	// record under a fresh generation), and any handle to the firing
	// event — e.g. its own timer — must already be stale.
	s.recycle(e)
	fn()
}

// Run executes events until the queue drains, Stop is called, or the
// watchdog (if any) aborts the loop.
func (s *Simulator) Run() {
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	s.abortErr = nil
	for !s.stopped && s.Step() {
		if s.watchFn != nil && s.watchdogTripped() {
			return
		}
	}
}

// RunUntil executes events with timestamps <= deadline, advancing the
// clock to exactly deadline when the queue runs dry earlier. Like Run,
// it holds the running flag for re-entrancy detection. A watchdog
// abort leaves the clock at the last processed event (AbortErr set).
func (s *Simulator) RunUntil(deadline Time) {
	s.running = true
	defer func() { s.running = false }()
	s.stopped = false
	s.abortErr = nil
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > deadline {
			// Everything due by the deadline has fired — reserved slots
			// included, whichever sequence they drew so far.
			if s.now <= deadline {
				s.pos = Slot{at: deadline, seq: s.nextSeq}
			}
			break
		}
		s.exec(e)
		if s.watchFn != nil && s.watchdogTripped() {
			return
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor executes events for d of virtual time from now.
func (s *Simulator) RunFor(d Time) { s.RunUntil(s.now + d) }

// Running reports whether a Run/RunUntil/RunFor loop is active — i.e.
// the caller is inside an event handler.
func (s *Simulator) Running() bool { return s.running }

// --- 4-ary min-heap over (at, seq) ---
//
// A 4-ary heap does ~half the levels of a binary heap on sift-down,
// which is where a simulator's pop-heavy workload spends its time; the
// comparisons stay cache-friendly because all four children are
// adjacent in the backing slice.

func eventLess(a, b *eventRec) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) push(e *eventRec) {
	s.queue = append(s.queue, e)
	i := len(s.queue) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventLess(s.queue[i], s.queue[parent]) {
			break
		}
		s.queue[i], s.queue[parent] = s.queue[parent], s.queue[i]
		i = parent
	}
}

// pop removes the minimum record (the caller has already read it via
// peek or s.queue[0]).
func (s *Simulator) pop() {
	n := len(s.queue) - 1
	s.queue[0] = s.queue[n]
	s.queue[n] = nil
	s.queue = s.queue[:n]
	if n == 0 {
		return
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventLess(s.queue[c], s.queue[min]) {
				min = c
			}
		}
		if !eventLess(s.queue[min], s.queue[i]) {
			break
		}
		s.queue[i], s.queue[min] = s.queue[min], s.queue[i]
		i = min
	}
}

// Timer is a restartable one-shot timer bound to a Simulator, in the
// style of time.Timer but in virtual time. It is the building block
// for TCP retransmission and delayed-ACK timers.
//
// A Timer binds its expiry callback once, at construction: re-arming
// via Reset schedules the same bound function instead of allocating a
// fresh closure per re-arm (RTO timers re-arm on every ACK).
//
// A pending Timer lives either in the timing wheel (w non-nil; the
// common case — O(1) arm and cancel) or, when its deadline is imminent
// or beyond the wheel horizon, as an ordinary heap event (ev). Wheel
// residents migrate to the heap shortly before expiry; either way the
// firing order is identical to a pure-heap schedule (see wheel.go).
type Timer struct {
	sim  *Simulator
	name string
	fn   func()
	fire func() // bound once; clears ev then invokes fn
	ev   Event
	w    *timerRec
}

// NewTimer returns a stopped timer that will invoke fn when it fires.
func NewTimer(s *Simulator, name string, fn func()) *Timer {
	t := &Timer{sim: s, name: name, fn: fn}
	t.fire = func() {
		t.ev = Event{}
		t.fn()
	}
	return t
}

// Reset (re)arms the timer to fire d from now, replacing any pending
// expiry.
func (t *Timer) Reset(d Time) {
	if d < 0 {
		d = 0
	}
	t.Stop()
	t.sim.armTimer(t, t.sim.now+d)
}

// ResetAt (re)arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Stop()
	t.sim.armTimer(t, at)
}

// Stop disarms the timer if it is pending.
func (t *Timer) Stop() {
	if t.w != nil {
		t.sim.wheelRemove(t.w)
		t.sim.live--
		t.sim.wheelCancels++
		t.w = nil
	} else if t.ev.live() {
		t.sim.Cancel(t.ev)
	}
	t.ev = Event{}
}

// Armed reports whether the timer currently has a pending expiry.
func (t *Timer) Armed() bool {
	return t.w != nil || (t.ev.live() && !t.ev.Cancelled())
}

// Deadline reports when the timer will fire, or MaxTime if disarmed.
func (t *Timer) Deadline() Time {
	if t.w != nil {
		return t.w.at
	}
	if !t.Armed() {
		return MaxTime
	}
	return t.ev.Time()
}
