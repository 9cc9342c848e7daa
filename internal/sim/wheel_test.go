package sim

import (
	"fmt"
	"testing"
)

// TestWheelLevelsAndFallbacks pins where an arm lands for each deadline
// band: level 0/1/2 for deadlines inside the respective horizons, heap
// for far-future deadlines, and heap for deadlines inside the slot the
// flush cursor has already passed — and that every one of them fires at
// the right virtual time regardless of placement.
func TestWheelLevelsAndFallbacks(t *testing.T) {
	s := New()
	deadlines := []Time{
		50 * Millisecond, // level 0
		Second,           // level 1
		2 * Minute,       // level 2
		6 * 60 * Minute,  // beyond horizon2: heap
	}
	var fired []Time
	var timers []*Timer
	for _, d := range deadlines {
		tm := NewTimer(s, "band", func() { fired = append(fired, s.Now()) })
		tm.Reset(d)
		if got := tm.Deadline(); got != d {
			t.Fatalf("Deadline = %v, want %v", got, d)
		}
		timers = append(timers, tm)
	}
	wheelPop := 0
	for _, tm := range timers {
		if tm.w != nil {
			wheelPop++
		}
	}
	if wheelPop != 3 {
		t.Fatalf("wheel holds %d timers, want 3 (far-future must fall back to heap)", wheelPop)
	}
	if s.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", s.Pending())
	}
	s.Run()
	for i, d := range deadlines {
		if fired[i] != d {
			t.Fatalf("timer %d fired at %v, want %v", i, fired[i], d)
		}
	}

	// Imminent arm: once the flush cursor has moved past a slot, a
	// deadline inside it must go straight to the heap and still fire.
	s2 := New()
	late := NewTimer(s2, "anchor", func() {})
	late.Reset(100 * Millisecond) // anchors flushPos, populates wheel
	s2.At(90*Millisecond, "probe", func() {})
	s2.Step() // advances to 90ms, flushing slots up to there
	if s2.wheel.flushPos <= s2.Now() {
		t.Fatalf("flushPos %v not past now %v", s2.wheel.flushPos, s2.Now())
	}
	hit := false
	im := NewTimer(s2, "imminent", func() { hit = true })
	im.Reset(0)
	if im.w != nil {
		t.Fatal("imminent timer landed in an already-flushed wheel slot")
	}
	s2.Run()
	if !hit {
		t.Fatal("imminent timer never fired")
	}
}

// TestWheelCancelIsO1 pins the wheel's reason to exist: a cancelled
// wheel timer is unlinked immediately and never becomes heap traffic.
func TestWheelCancelIsO1(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		tm := NewTimer(s, "doomed", func() { t.Error("cancelled timer fired") })
		tm.Reset(Time(i+1) * 10 * Millisecond)
		tm.Stop()
		if tm.Armed() {
			t.Fatal("timer still armed after Stop")
		}
	}
	arms, cancels, flushes := s.WheelStats()
	if arms != 100 || cancels != 100 || flushes != 0 {
		t.Fatalf("WheelStats = %d/%d/%d, want 100 arms, 100 cancels, 0 flushes", arms, cancels, flushes)
	}
	if s.Pending() != 0 || len(s.queue) != 0 {
		t.Fatalf("Pending=%d queue=%d after wheel cancels, want 0/0", s.Pending(), len(s.queue))
	}
	s.Run()
}

// TestWheelIdleReanchor: after a long idle gap the flush cursor is far
// behind; a fresh arm on the now-empty wheel must re-anchor instead of
// walking the gap slot by slot.
func TestWheelIdleReanchor(t *testing.T) {
	s := New()
	tm := NewTimer(s, "first", func() {})
	tm.Reset(10 * Millisecond)
	s.Run()
	// Idle jump: schedule a plain event far ahead and run to it.
	s.At(30*Minute, "wake", func() {})
	s.Run()
	fired := false
	tm2 := NewTimer(s, "second", func() { fired = true })
	tm2.Reset(40 * Millisecond)
	if tm2.w == nil {
		t.Fatal("post-idle arm fell back to the heap; re-anchor failed")
	}
	want := s.Now() + 40*Millisecond
	s.Run()
	if !fired || s.Now() != want {
		t.Fatalf("post-idle timer fired=%v at %v, want true at %v", fired, s.Now(), want)
	}
}

// TestWheelResetStormAllocFree pins the wheel's steady-state allocation
// behavior: once the record pools are warm, an RTO-style arm/cancel
// storm must not touch the heap at all.
func TestWheelResetStormAllocFree(t *testing.T) {
	s := New()
	tm := NewTimer(s, "rto", func() {})
	tm.Reset(200 * Millisecond) // warm the pool
	tm.Stop()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 50; i++ {
			tm.Reset(200 * Millisecond)
		}
		tm.Stop()
	})
	if allocs != 0 {
		t.Fatalf("timer Reset storm allocates %v/run, want 0", allocs)
	}
}

// TestSimulatorReset: a reused simulator must behave exactly like a
// fresh one — clock, seq counter, schedule, and wheel all restart —
// while keeping its pools warm.
func TestSimulatorReset(t *testing.T) {
	s := New()
	run := func() (order []string) {
		tm := NewTimer(s, "t", func() { order = append(order, "timer") })
		tm.Reset(5 * Millisecond)
		s.At(5*Millisecond, "e", func() { order = append(order, "event") })
		s.At(2*Millisecond, "early", func() { order = append(order, "early") })
		// Leave one pending timer and one pending event behind to make
		// Reset clean both structures.
		NewTimer(s, "leftover", func() {}).Reset(90 * Second)
		s.At(80*Second, "leftover-e", func() {})
		s.RunUntil(10 * Millisecond)
		return order
	}
	first := run()
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d before Reset, want 2 leftovers", s.Pending())
	}
	s.Reset()
	if s.Now() != 0 || s.Pending() != 0 || s.Processed() != 0 {
		t.Fatalf("Reset left now=%v pending=%d processed=%d", s.Now(), s.Pending(), s.Processed())
	}
	second := run()
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("runs executed %d/%d handlers, want 3 each", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("order diverged after Reset: %v vs %v", first, second)
		}
	}
	// The timer armed with seq equal to a plain event's arm order must
	// tie-break identically across Reset; "timer" before "event" at 5ms
	// because the timer was armed first.
	if first[0] != "early" || first[1] != "timer" || first[2] != "event" {
		t.Fatalf("unexpected order %v", first)
	}
}

// TestTimerSurvivesReset: a Timer made before Reset — the way a
// recycled TCP endpoint keeps its three — comes back disarmed whether
// it was pending in the wheel or in the heap, Stop on it touches
// nothing the reset simulator now owns, and once re-armed it fires
// exactly once without disturbing a timer armed in the new run.
func TestTimerSurvivesReset(t *testing.T) {
	s := New()
	fired := map[string]int{}
	var order []string
	timer := func(name string) *Timer {
		return NewTimer(s, name, func() { fired[name]++; order = append(order, name) })
	}
	wheel, heap := timer("wheel"), timer("heap")
	wheel.Reset(100 * Millisecond) // parks in the wheel
	heap.Reset(6 * 60 * Minute)    // beyond the wheel: a heap event
	if wheel.w == nil || heap.w != nil {
		t.Fatal("the timers did not land one in the wheel and one in the heap")
	}
	s.Reset()
	for _, tm := range []*Timer{wheel, heap} {
		if tm.Armed() || tm.Deadline() != MaxTime {
			t.Fatalf("%s: Armed=%v Deadline=%v after Reset", tm.name, tm.Armed(), tm.Deadline())
		}
		tm.Stop()
	}
	if s.Pending() != 0 {
		t.Fatalf("Stop on a reset timer changed Pending to %d", s.Pending())
	}

	fresh := timer("fresh")
	fresh.Reset(50 * Millisecond)
	wheel.Reset(50 * Millisecond) // same instant, armed later: fires after fresh
	heap.Reset(20 * Millisecond)
	if !wheel.Armed() || !heap.Armed() || s.Pending() != 3 {
		t.Fatalf("re-armed: wheel %v heap %v pending %d", wheel.Armed(), heap.Armed(), s.Pending())
	}
	s.RunUntil(Second)
	if want := []string{"heap", "fresh", "wheel"}; fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for name, n := range fired {
		if n != 1 {
			t.Fatalf("%s fired %d times", name, n)
		}
	}
}

// refWheelTimer models one Timer in the fuzz oracle: at most one
// pending deadline, replaced on reset.
type refWheelTimer struct {
	pending bool
	at      Time
	seq     uint64
}

// FuzzTimerWheel drives Timers (wheel path) and plain events (heap
// path) against a brute-force oracle through random arm/stop/cancel/
// step storms across every wheel level, demanding identical firing
// order — including same-tick ties broken by arm-time seq — plus
// matching clocks, Pending counts, Armed flags, and Deadlines. This is
// the wheel's counterpart to FuzzScheduler's heap-vs-reference loop.
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{0, 0, 10, 1, 4, 0, 1, 10, 1, 4, 4})
	f.Add([]byte{0, 0, 200, 4, 0, 1, 200, 4, 2, 50, 3, 0, 4, 4, 4})
	f.Add([]byte{0, 0, 255, 5, 0, 1, 255, 5, 1, 0, 4, 4})
	f.Add([]byte{2, 10, 0, 2, 10, 1, 3, 0, 4, 4, 0, 2, 10, 2, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		s := New()
		const nTimers = 5
		// Deadline scales chosen to land in level 0, level 1, level 2,
		// the heap fallback, and sub-slot (imminent) territory.
		scales := []Time{Microsecond, Millisecond, 40 * Millisecond, Second, 45 * Second, 70 * Minute}

		var gotOrder, wantOrder []int
		var refT [nTimers]refWheelTimer
		var timers [nTimers]*Timer
		for i := range timers {
			id := i
			timers[i] = NewTimer(s, "wt", func() { gotOrder = append(gotOrder, id) })
		}
		var refEvents []refEvent
		var handles []Event
		var refSeq uint64
		refNow := Time(0)
		nextID := nTimers

		refStep := func() bool {
			bestTimer, bestEvent := -1, -1
			var bestAt Time
			var bestSeq uint64
			consider := func(at Time, seq uint64) bool {
				if bestTimer < 0 && bestEvent < 0 {
					return true
				}
				return at < bestAt || (at == bestAt && seq < bestSeq)
			}
			for i := range refT {
				if refT[i].pending && consider(refT[i].at, refT[i].seq) {
					bestTimer, bestEvent = i, -1
					bestAt, bestSeq = refT[i].at, refT[i].seq
				}
			}
			for i := range refEvents {
				if !refEvents[i].cancelled && consider(refEvents[i].at, refEvents[i].seq) {
					bestTimer, bestEvent = -1, i
					bestAt, bestSeq = refEvents[i].at, refEvents[i].seq
				}
			}
			switch {
			case bestTimer >= 0:
				refNow = bestAt
				refT[bestTimer].pending = false
				wantOrder = append(wantOrder, bestTimer)
			case bestEvent >= 0:
				refNow = bestAt
				wantOrder = append(wantOrder, refEvents[bestEvent].id)
				refEvents = append(refEvents[:bestEvent], refEvents[bestEvent+1:]...)
			default:
				return false
			}
			return true
		}
		refPending := func() int {
			n := 0
			for i := range refT {
				if refT[i].pending {
					n++
				}
			}
			for i := range refEvents {
				if !refEvents[i].cancelled {
					n++
				}
			}
			return n
		}
		next := func(i *int) byte {
			if *i+1 < len(ops) {
				*i++
				return ops[*i]
			}
			return 0
		}

		for i := 0; i < len(ops); i++ {
			switch ops[i] % 5 {
			case 0: // Reset timer k to a banded deadline
				k := int(next(&i)) % nTimers
				mag := next(&i)
				d := Time(mag%16) * scales[int(mag)%len(scales)]
				timers[k].Reset(d)
				refT[k] = refWheelTimer{pending: true, at: s.Now() + d, seq: refSeq}
				refSeq++
			case 1: // Stop timer k
				k := int(next(&i)) % nTimers
				timers[k].Stop()
				refT[k].pending = false
			case 2: // Schedule a plain heap event
				d := Time(next(&i)) * Millisecond
				id := nextID
				nextID++
				handles = append(handles, s.At(s.Now()+d, "fe", func() { gotOrder = append(gotOrder, id) }))
				refEvents = append(refEvents, refEvent{at: s.Now() + d, seq: refSeq, id: id})
				refSeq++
			case 3: // Cancel a plain event (live or stale)
				if len(handles) == 0 {
					continue
				}
				j := int(next(&i)) % len(handles)
				s.Cancel(handles[j])
				id := nTimers + j
				for k := range refEvents {
					if refEvents[k].id == id {
						refEvents[k].cancelled = true
					}
				}
			case 4: // Step
				got := s.Step()
				want := refStep()
				if got != want {
					t.Fatalf("op %d: Step = %v, reference = %v", i, got, want)
				}
			}
			if s.Pending() != refPending() {
				t.Fatalf("op %d: Pending = %d, reference = %d", i, s.Pending(), refPending())
			}
			for k := range refT {
				if timers[k].Armed() != refT[k].pending {
					t.Fatalf("op %d: timer %d Armed = %v, reference = %v", i, k, timers[k].Armed(), refT[k].pending)
				}
				if refT[k].pending && timers[k].Deadline() != refT[k].at {
					t.Fatalf("op %d: timer %d Deadline = %v, reference = %v", i, k, timers[k].Deadline(), refT[k].at)
				}
			}
		}
		for s.Step() {
			if !refStep() {
				t.Fatal("scheduler ran more events than reference")
			}
		}
		if refStep() {
			t.Fatal("reference has events the scheduler dropped")
		}
		if len(gotOrder) != len(wantOrder) {
			t.Fatalf("executed %d callbacks, reference %d", len(gotOrder), len(wantOrder))
		}
		for i := range gotOrder {
			if gotOrder[i] != wantOrder[i] {
				t.Fatalf("firing order diverges at %d: got %v, want %v", i, gotOrder, wantOrder)
			}
		}
		if s.Now() != refNow {
			t.Fatalf("clock = %v, reference = %v", s.Now(), refNow)
		}
	})
}
