package sim

import "testing"

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
