package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestPassed pins the one question a never-scheduled slot is asked —
// "would an event at this position have fired by now?" — at each place
// the run loop's position moves. Every case reserves marker slots and
// probes them from handlers (or from outside the loop) whose own
// position relative to the marker is known by construction; each probe
// states what an eager event at the marker would have made true.
func TestPassed(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, s *Simulator, saw func(what string, got, want bool))
	}{
		{"Step splits a same-instant tie by sequence", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			var a Slot
			s.At(9, "earlier", func() { saw("an instant earlier", s.Passed(a), false) })
			s.At(10, "before", func() { saw("same instant, drawn before", s.Passed(a), false) })
			a = s.ReserveSlot(10)
			s.At(10, "after", func() { saw("same instant, drawn after", s.Passed(a), true) })
			s.At(11, "later", func() { saw("an instant later", s.Passed(a), true) })
			saw("before the loop starts", s.Passed(a), false)
			for s.Step() {
			}
			saw("after the last event", s.Passed(a), true)
		}},
		{"ConsumeSlot moves the position to the slot it retires", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			var a, b, c Slot
			s.At(10, "head", func() {
				saw("marker before the drain", s.Passed(a), false)
				if !s.ConsumeSlot(b) {
					t.Error("ConsumeSlot refused the next position in the schedule")
				}
				saw("marker drawn before the consumed slot", s.Passed(a), true)
				saw("the consumed slot itself", s.Passed(b), false)
				saw("marker drawn after the consumed slot", s.Passed(c), false)
			})
			a = s.ReserveSlot(10)
			b = s.ReserveSlot(10)
			c = s.ReserveSlot(10)
			s.Run()
		}},
		{"a wheel-flushed timer fires at its arm-time sequence", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			var a Slot
			const at = 50 * Millisecond // a level-0 wheel resident, not a heap fallback
			NewTimer(s, "before", func() { saw("timer armed before the marker", s.Passed(a), false) }).ResetAt(at)
			a = s.ReserveSlot(at)
			NewTimer(s, "after", func() { saw("timer armed after the marker", s.Passed(a), true) }).ResetAt(at)
			s.Run()
			if arms, _, flushes := s.WheelStats(); arms != 2 || flushes != 2 {
				t.Errorf("timers took the heap (arms=%d flushes=%d); the case no longer covers the wheel", arms, flushes)
			}
		}},
		{"RunUntil on a dry schedule passes the whole deadline instant", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			s.At(5, "only", func() {})
			a := s.ReserveSlot(20)
			next := s.ReserveSlot(21)
			s.RunUntil(20)
			saw("slot at the deadline", s.Passed(a), true)
			saw("slot past the deadline", s.Passed(next), false)
			saw("slot reserved at the deadline afterwards", s.Passed(s.ReserveSlot(20)), false)
		}},
		{"RunUntil ending on an event at the deadline passes later ties", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			s.At(20, "at deadline", func() {})
			a := s.ReserveSlot(20)
			s.At(30, "beyond", func() {})
			s.RunUntil(20)
			saw("slot drawn after the deadline's last event", s.Passed(a), true)
		}},
		{"Stop leaves the position at the stopping event", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			s.At(5, "stopper", s.Stop)
			a := s.ReserveSlot(10)
			s.At(15, "rest", func() {})
			s.RunUntil(20)
			if s.Now() != 20 {
				t.Errorf("Now = %v after a stopped RunUntil(20); the case assumes the clock still jumps", s.Now())
			}
			saw("clock at the deadline, loop never got there", s.Passed(a), false)
			s.RunUntil(20)
			saw("resumed to the deadline", s.Passed(a), true)
		}},
		{"RunUntil into the past moves nothing", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			s.At(10, "e", func() {})
			s.Run()
			a := s.ReserveSlot(10)
			s.RunUntil(3)
			saw("slot reserved after the last event", s.Passed(a), false)
			saw("slot before the last event", s.Passed(Slot{at: 4}), true)
		}},
		{"Reset rewinds the position", func(t *testing.T, s *Simulator, saw func(string, bool, bool)) {
			a := s.ReserveSlot(5)
			s.RunUntil(10)
			saw("before Reset", s.Passed(a), true)
			s.Reset()
			saw("same coordinates after Reset", s.Passed(a), false)
			saw("first slot of the new run", s.Passed(s.ReserveSlot(0)), false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probes := 0
			tc.run(t, New(), func(what string, got, want bool) {
				probes++
				if got != want {
					t.Errorf("%s: Passed = %v, want %v", what, got, want)
				}
			})
			if probes == 0 {
				t.Fatal("no probe ran")
			}
		})
	}
}

// fifoSource is a link-shaped slot source: its entries come due in
// reservation order, only the head is ever on the heap, and the handler
// that fires the head retires every following entry ConsumeSlot lets it
// — exactly how a netem link drains its arrival ring. With eager set it
// is the reference instead: every entry is its own heap event, drawn
// with At at the moment the lazy source would have reserved its slot.
type fifoSource struct {
	s     *Simulator
	eager bool
	fire  func(id int)
	slots []Slot
	ids   []int
	ahead int // entries consumed at a later instant than the handler's
}

func (f *fifoSource) push(at Time, id int) {
	if f.eager {
		f.s.At(at, "fifo", func() { f.fire(id) })
		return
	}
	f.slots = append(f.slots, f.s.ReserveSlot(at))
	f.ids = append(f.ids, id)
	if len(f.slots) == 1 {
		f.s.ScheduleSlot(f.slots[0], "fifo", f.onHead)
	}
}

func (f *fifoSource) onHead() {
	for {
		id := f.ids[0]
		f.slots, f.ids = f.slots[1:], f.ids[1:]
		last := len(f.slots) == 0
		f.fire(id)
		if last { // a push from fire scheduled the new head itself
			return
		}
		before := f.s.Now()
		if !f.s.ConsumeSlot(f.slots[0]) {
			f.s.ScheduleSlot(f.slots[0], "fifo", f.onHead)
			return
		}
		if f.s.Now() > before {
			f.ahead++
		}
	}
}

// TestConsumeSlotLookAhead pins where a chain of consumed slots must
// stop: every case fills a FIFO source whose later entries the first
// entry's handler could retire inline, puts something in the way, and
// states the firing order and clock (in units of unit) an eager
// schedule gives.
func TestConsumeSlotLookAhead(t *testing.T) {
	for _, tc := range []struct {
		name  string
		unit  Time
		run   func(s *Simulator, f *fifoSource, at func(what any))
		want  string
		ahead int
	}{
		{"an unobstructed chain drains in one handler", 1, func(s *Simulator, f *fifoSource, at func(any)) {
			f.push(10, 1)
			f.push(20, 2)
			f.push(30, 3)
			s.Run()
		}, "1@10 2@20 3@30", 2},
		{"the chain stops at the RunUntil deadline", 1, func(s *Simulator, f *fifoSource, at func(any)) {
			f.push(10, 1)
			f.push(20, 2)
			f.push(30, 3)
			s.RunUntil(25)
			at("until")
			s.RunUntil(40)
		}, "1@10 2@20 until@25 3@30", 1},
		{"the chain stops at Stop", 1, func(s *Simulator, f *fifoSource, at func(any)) {
			f.fire = func(id int) {
				at(id)
				if id == 2 {
					s.Stop()
				}
			}
			f.push(10, 1)
			f.push(20, 2)
			f.push(30, 3)
			s.Run()
			at("stopped")
			s.Run()
		}, "1@10 2@20 stopped@20 3@30", 1},
		{"the chain stops before a heap event that orders first", 1, func(s *Simulator, f *fifoSource, at func(any)) {
			f.push(10, 1)
			f.push(20, 2)
			s.At(20, "tie", func() { at("tie") }) // same instant, later sequence
			s.At(15, "between", func() { at("between") })
			f.push(30, 3)
			s.Run()
		}, "1@10 between@15 2@20 tie@20 3@30", 0},
		{"the chain stops before a wheel timer that orders first", Millisecond, func(s *Simulator, f *fifoSource, at func(any)) {
			f.push(10*Millisecond, 1)
			f.push(20*Millisecond, 2) // below the wheel's flush cursor: consumed
			NewTimer(s, "timer", func() { at("timer") }).ResetAt(25 * Millisecond)
			f.push(30*Millisecond, 3)
			f.push(31*Millisecond, 4) // the wheel is empty again: consumed
			s.Run()
			if arms, _, _ := s.WheelStats(); arms != 1 {
				t.Error("the timer took the heap; the case no longer covers the wheel")
			}
		}, "1@10 2@20 timer@25 3@30 4@31", 2},
		{"the chain flushes the wheel up to the slot, as peek would", Millisecond, func(s *Simulator, f *fifoSource, at func(any)) {
			early := NewTimer(s, "early", func() { at("early") })
			early.ResetAt(25 * Millisecond) // anchors the wheel's flush cursor below 30 ms
			NewTimer(s, "late", func() { at("late") }).ResetAt(50 * Millisecond)
			early.Stop()
			f.push(10*Millisecond, 1)
			f.push(30*Millisecond, 2) // past the cursor: consumed once the flush finds nothing due first
			f.push(60*Millisecond, 3) // the flush promotes the late timer, which orders first
			s.Run()
		}, "1@10 2@30 late@50 3@60", 1},
		{"a same-instant slot waits for a wheel timer armed before it", 1, func(s *Simulator, f *fifoSource, at func(any)) {
			f.fire = func(id int) {
				at(id)
				if id == 1 { // on an empty wheel a timer due now is a wheel resident
					NewTimer(s, "timer", func() { at("timer") }).ResetAt(s.Now())
					f.push(10, 3)
				}
			}
			f.push(10, 1)
			f.push(10, 2)
			s.Run()
		}, "1@10 2@10 timer@10 3@10", 0},
		{"Step retires only same-instant slots", 1, func(s *Simulator, f *fifoSource, at func(any)) {
			f.push(10, 1)
			f.push(10, 2)
			f.push(20, 3)
			for s.Step() {
				at("step")
			}
		}, "1@10 2@10 step@10 3@20 step@20", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			var log []string
			at := func(what any) { log = append(log, fmt.Sprintf("%v@%d", what, s.Now()/tc.unit)) }
			f := &fifoSource{s: s, fire: func(id int) { at(id) }}
			tc.run(s, f, at)
			if got := strings.Join(log, " "); got != tc.want {
				t.Errorf("fired %q, want %q", got, tc.want)
			}
			if f.ahead != tc.ahead {
				t.Errorf("%d entries consumed ahead of the clock, want %d", f.ahead, tc.ahead)
			}
		})
	}
}

// slotEvent is one thing a slot script observed: what fired (a FIFO
// entry, a plain event or timer by id; or a watchdog check, id -1),
// when, and at which Processed count.
type slotEvent struct {
	id   int
	at   Time
	done uint64
}

// runSlotScript interprets script on a simulator with two FIFO slot
// sources, plain events, cancels, two timers and an optional watchdog,
// lazily (ConsumeSlot look-ahead) or as the eager pure-heap reference,
// and returns what it observed plus how many entries were consumed
// ahead of the clock. script[0] configures; the rest are ops reading
// their arguments from the bytes that follow. Handlers react to what
// fires from a budget, so events are scheduled, timers armed and the
// loop stopped from inside a consumed chain too.
func runSlotScript(script []byte, eager bool) (log []slotEvent, ahead int) {
	if len(script) == 0 {
		return nil, 0
	}
	s := New()
	const quantum = 100 * Microsecond
	scales := []Time{quantum, Millisecond, 40 * Millisecond, 2 * Second}
	pos := 0
	next := func() int {
		if pos+1 < len(script) {
			pos++
			return int(script[pos])
		}
		return 0
	}
	note := func(id int) { log = append(log, slotEvent{id, s.Now(), s.Processed()}) }
	if script[0]&1 != 0 {
		s.SetWatchdog(uint64(1+script[0]>>1&7), func() error { note(-1); return nil })
	}

	var (
		src     [2]*fifoSource
		tail    [2]Time // FIFO: a source's entries come due in push order
		timers  [2]*Timer
		handles []Event
		nextID  = 10
		budget  = 64
		react   func(id int)
	)
	push := func(k int, gap int) {
		at := max(tail[k], s.Now()) + Time(gap%4)*quantum
		tail[k] = at
		src[k].push(at, nextID)
		nextID++
	}
	plain := func(d int) {
		id := nextID
		nextID++
		handles = append(handles, s.At(s.Now()+Time(d%8)*quantum, "plain", func() { react(id) }))
	}
	arm := func(k, b int) { timers[k].Reset(Time(b%8) * scales[b>>3%len(scales)]) }
	react = func(id int) {
		note(id)
		if budget == 0 {
			return
		}
		budget--
		switch r := int(script[(id*7+3)%len(script)]); r % 6 {
		case 0:
			push(r>>3&1, r>>4)
		case 1:
			plain(r >> 3)
		case 2:
			arm(r>>3&1, r>>4)
		case 3:
			s.Stop()
		}
	}
	for k := range src {
		src[k] = &fifoSource{s: s, eager: eager, fire: react}
		id := k
		timers[k] = NewTimer(s, "timer", func() { react(id) })
	}

	for pos+1 < len(script) {
		switch op := next(); op % 8 {
		case 0: // a burst of one to eight entries, as a link's queue sends them
			a := next()
			for i := 0; i <= a>>5; i++ {
				push(a&1, a>>1)
			}
		case 1:
			plain(next())
		case 2: // cancel a plain event, live or stale
			if len(handles) > 0 {
				s.Cancel(handles[next()%len(handles)])
			}
		case 3:
			a := next()
			arm(a&1, a>>1)
		case 4:
			timers[next()&1].Stop()
		case 5: // the current instant only; not Step, which a same-instant drain makes do more than one event's work
			s.RunUntil(s.Now())
		case 6:
			s.RunUntil(s.Now() + Time(next()%16)*quantum)
		case 7:
			s.Run()
		}
	}
	s.Run()
	note(-2)
	return log, src[0].ahead + src[1].ahead
}

// checkSlotScript runs script both ways and reports the first
// observation on which the look-ahead differs from the eager schedule.
func checkSlotScript(t *testing.T, script []byte) (ahead int) {
	t.Helper()
	want, _ := runSlotScript(script, true)
	got, ahead := runSlotScript(script, false)
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			var g any = "nothing"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("script %v: observation %d: look-ahead saw %+v, eager schedule %+v", script, i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("script %v: look-ahead observed %d things, eager schedule %d", script, len(got), len(want))
	}
	return ahead
}

// slotSeeds are scripts for the obstructions TestConsumeSlotLookAhead
// names, mixed: both sources interleaved on one grid, plain events and
// timers landing between their entries, Stop from a handler, short
// RunUntil deadlines, and a watchdog due every few events. The scripts
// never Step: under Step a same-instant drain retires several entries
// in one call, so an op between Steps would act at another point of
// the event sequence than on the eager schedule (TestConsumeSlotLookAhead
// pins Step's own behaviour).
var slotSeeds = [][]byte{
	{0, 0, 2, 0, 2, 0, 3, 7},
	{0, 0, 2, 0, 3, 1, 1, 0, 2, 3, 2, 7},
	{0, 0, 0, 0, 1, 0, 0, 0, 1, 6, 1, 6, 5, 7},
	{2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 7},
	{6, 0, 2, 0, 6, 1, 3, 2, 0, 3, 0x40, 0, 2, 7},
	{0, 0, 4, 3, 0x12, 0, 4, 0, 4, 4, 1, 7, 3, 0x13, 7},
	{1, 0, 2, 0, 2, 0, 2, 0, 2, 1, 1, 7},
	{0x1d, 0, 8, 1, 2, 2, 0, 0, 0x1a, 5, 5, 6, 3, 7, 0, 2, 7},
}

// TestSlotLookAheadMatchesEagerSchedule is the property: the seeds, then
// a few hundred random scripts. It also checks that the scripts really
// consume slots ahead of the clock, or they prove little.
func TestSlotLookAheadMatchesEagerSchedule(t *testing.T) {
	scripts := slices.Clone(slotSeeds)
	r := rand.New(rand.NewSource(53))
	for i := 0; i < 400; i++ {
		sc := make([]byte, 4+r.Intn(80))
		r.Read(sc)
		scripts = append(scripts, sc)
	}
	ahead := 0
	for _, sc := range scripts {
		ahead += checkSlotScript(t, sc)
	}
	if ahead < len(scripts) {
		t.Errorf("%d slots consumed ahead of the clock over %d scripts", ahead, len(scripts))
	}
}

// FuzzSlotLookAhead lets the fuzzer hunt for a script on which a
// consumed chain fires in another order, at another time or at another
// event count than the pure-heap schedule.
func FuzzSlotLookAhead(f *testing.F) {
	for _, sc := range slotSeeds {
		f.Add(sc)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		checkSlotScript(t, script)
	})
}
