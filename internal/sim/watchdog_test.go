package sim

import (
	"errors"
	"testing"
)

// A self-rescheduling event that never advances virtual time — the
// livelock shape the chaos harness watchdog must catch.
func livelock(s *Simulator) {
	var spin func()
	spin = func() { s.At(s.Now(), "spin", spin) }
	s.At(0, "spin", spin)
}

func TestWatchdogFiresEveryN(t *testing.T) {
	s := New()
	calls := 0
	s.SetWatchdog(10, func() error { calls++; return nil })
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < 95 {
			s.After(Millisecond, "tick", tick)
		}
	}
	s.After(Millisecond, "tick", tick)
	s.Run()
	if calls != 9 { // 95 events / every-10 = 9 full countdowns
		t.Fatalf("watchdog calls = %d, want 9", calls)
	}
	if s.AbortErr() != nil {
		t.Fatalf("AbortErr = %v, want nil", s.AbortErr())
	}
}

func TestWatchdogAbortsRun(t *testing.T) {
	s := New()
	livelock(s)
	boom := errors.New("livelock detected")
	s.SetWatchdog(64, func() error {
		if s.Processed() > 1000 {
			return boom
		}
		return nil
	})
	s.Run()
	if !errors.Is(s.AbortErr(), boom) {
		t.Fatalf("AbortErr = %v, want %v", s.AbortErr(), boom)
	}
	if s.Processed() > 2000 {
		t.Fatalf("processed %d events after abort should have stopped the loop", s.Processed())
	}
}

func TestWatchdogAbortsRunUntil(t *testing.T) {
	s := New()
	livelock(s)
	boom := errors.New("stuck")
	s.SetWatchdog(32, func() error { return boom })
	s.RunUntil(Second)
	if !errors.Is(s.AbortErr(), boom) {
		t.Fatalf("AbortErr = %v, want %v", s.AbortErr(), boom)
	}
	// An aborted RunUntil must not pretend time reached the deadline.
	if s.Now() != 0 {
		t.Fatalf("clock advanced to %v after abort, want 0", s.Now())
	}
}

func TestWatchdogAbortErrClearsOnNextRun(t *testing.T) {
	s := New()
	s.At(0, "x", func() {})
	s.SetWatchdog(1, func() error { return errors.New("once") })
	s.Run()
	if s.AbortErr() == nil {
		t.Fatal("expected abort on first run")
	}
	s.SetWatchdog(0, nil)
	s.At(s.Now()+Millisecond, "y", func() {})
	s.Run()
	if s.AbortErr() != nil {
		t.Fatalf("AbortErr = %v after clean run, want nil", s.AbortErr())
	}
}

func TestWatchdogRemovedByNilFn(t *testing.T) {
	s := New()
	calls := 0
	s.SetWatchdog(1, func() error { calls++; return nil })
	s.SetWatchdog(0, nil)
	for i := 0; i < 10; i++ {
		at := Time(i) * Millisecond
		s.At(at, "e", func() {})
	}
	s.Run()
	if calls != 0 {
		t.Fatalf("removed watchdog still ran %d times", calls)
	}
}

// TestWatchdogSeesConsumedSlots: a slot source that re-reserves at the
// current instant forever — the livelock shape of a FIFO that refills
// itself as it drains — never hands control back to the run loop
// unless ConsumeSlot charges the watchdog's countdown and declines once
// the check is due. With the charge, the watchdog trips at the same
// event count it would have on the eager schedule.
func TestWatchdogSeesConsumedSlots(t *testing.T) {
	s := New()
	const every, limit = 64, 1 << 16
	consumed := 0
	var spin func()
	spin = func() {
		for consumed < limit { // the cap only keeps a regression from hanging the test
			sl := s.ReserveSlot(s.Now())
			if !s.ConsumeSlot(sl) {
				s.ScheduleSlot(sl, "spin", spin)
				return
			}
			consumed++
		}
	}
	s.At(Millisecond, "spin", spin)
	stuck := errors.New("livelock")
	checks := 0
	s.SetWatchdog(every, func() error {
		if checks++; checks == 4 {
			return stuck
		}
		return nil
	})
	s.Run()
	if consumed >= limit {
		t.Fatalf("the source consumed %d slots without the watchdog ever running", consumed)
	}
	if !errors.Is(s.AbortErr(), stuck) {
		t.Fatalf("AbortErr = %v, want %v", s.AbortErr(), stuck)
	}
	if s.Processed() != 4*every {
		t.Fatalf("watchdog tripped after %d events, want %d as on the eager schedule", s.Processed(), 4*every)
	}
}
