package chaos

import (
	"errors"
	"fmt"
	"time"

	"mptcplab/internal/sim"
)

// Errors reported by the run watchdog via Simulator.AbortErr.
var (
	// ErrDeadline: the run burned more wall-clock time than allowed.
	ErrDeadline = errors.New("chaos: wall-clock deadline exceeded")
	// ErrLivelock: the event loop kept processing events without
	// virtual time moving — a self-feeding event storm.
	ErrLivelock = errors.New("chaos: simulation livelock (events without time progress)")
)

// watchEvery is how many processed events pass between watchdog
// checks; livelockChecks consecutive checks at one virtual instant
// (≈ livelockChecks×watchEvery events, far past any legitimate
// same-instant burst) trip ErrLivelock.
const (
	watchEvery     = 1 << 16
	livelockChecks = 16
)

// ArmWatchdog installs a per-run guard on the simulator: a wall-clock
// deadline (0 = none) and always-on livelock detection. The run loop
// stops with Simulator.AbortErr set to ErrDeadline or ErrLivelock;
// callers turn that into a failed-run row. Wall-clock kills are
// inherently nondeterministic — use generous deadlines (or 0) where
// byte-identical exports matter; livelock detection is a pure function
// of the event stream and never perturbs a healthy run.
func ArmWatchdog(s *sim.Simulator, wall time.Duration) {
	start := time.Now()
	lastNow := sim.Time(-1)
	same := 0
	s.SetWatchdog(watchEvery, func() error {
		if now := s.Now(); now != lastNow {
			lastNow = now
			same = 0
		} else if same++; same >= livelockChecks {
			return fmt.Errorf("%w at t=%v after %d events", ErrLivelock, now, s.Processed())
		}
		if wall > 0 && time.Since(start) > wall {
			return fmt.Errorf("%w (%v) at t=%v", ErrDeadline, wall, s.Now())
		}
		return nil
	})
}
