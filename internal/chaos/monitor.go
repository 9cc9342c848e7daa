package chaos

import (
	"mptcplab/internal/sim"
	"mptcplab/internal/stats"
)

// Monitor samples per-flow progress counters on a fixed virtual-time
// tick and scores each flow against the schedule's fault windows.
// Everything it records is in simulator time, so reports are exactly
// reproducible. Stall spans and recovery times are quantized to the
// sampling period.
type Monitor struct {
	// StallAfter is how long a flow must go without progress before a
	// stall span opens (default 1 s).
	StallAfter sim.Time

	// PathRates, when set, is sampled once per tick: the instantaneous
	// aggregate delivery rate on each access path, in bytes of
	// cumulatively ACKed payload per second (the per-subflow
	// RateEstimator telemetry, summed over live sender connections).
	// The samples split by fault-window membership and feed the
	// report's per-path fault/steady rates and per-path recovery
	// times, so a fade can be asserted path by path. Everything it
	// returns must derive from virtual time only.
	PathRates func() (wifi, cell float64)

	sim     *sim.Simulator
	spec    string
	windows []Window
	flows   []*Tracked
	closed  bool

	// Per-path tick telemetry (index 0 = WiFi, 1 = cellular).
	pathFault  [2]stats.Acc
	pathSteady [2]stats.Acc
	pathRecov  [2][]sim.Time // per schedule window, like Tracked.recov
}

// MonitorPeriod is the monitor's sampling tick.
const MonitorPeriod = 50 * sim.Millisecond

// timeoutAfter is the no-progress span counted as an app-level timeout;
// each crossing increments the report's timeouts once.
const timeoutAfter = 5 * sim.Second

// NewMonitor builds a monitor for one run of the schedule and starts
// its sampling tick. The tick re-arms itself until Finish, so drive
// the simulator with RunUntil/RunFor (Run would never drain).
func NewMonitor(s *sim.Simulator, sc Schedule) *Monitor {
	m := &Monitor{
		StallAfter: sim.Second,
		sim:        s,
		spec:       sc.Spec(),
		windows:    sc.Windows(),
	}
	for p := range m.pathRecov {
		m.pathRecov[p] = pendingRecov(len(m.windows))
	}
	s.After(MonitorPeriod, "chaos-monitor", m.tick)
	return m
}

// pendingRecov is a per-window recovery record with nothing seen yet.
func pendingRecov(n int) []sim.Time {
	recov := make([]sim.Time, n)
	for i := range recov {
		recov[i] = ttrPending
	}
	return recov
}

// Track registers a flow. progress must return a monotone byte count
// (e.g. web.Getter.BytesReceived); it is polled every MonitorPeriod until
// Done or Abort.
func (m *Monitor) Track(progress func() int64) *Tracked {
	tr := &Tracked{
		m: m, progress: progress,
		started: m.sim.Now(), lastChange: m.sim.Now(),
		endAt: -1,
		recov: pendingRecov(len(m.windows)),
	}
	// Windows fully before this flow's start never disrupted it.
	for i, w := range m.windows {
		if w.End <= tr.started {
			tr.recov[i] = ttrNA
		}
	}
	m.flows = append(m.flows, tr)
	return tr
}

// Tracked is the monitor's per-flow state.
type Tracked struct {
	m        *Monitor
	progress func() int64

	started    sim.Time
	endAt      sim.Time // -1 while running
	last       int64
	lastChange sim.Time

	stalled      bool
	stallStart   sim.Time
	stalls       int
	stallTime    sim.Time
	longestStall sim.Time
	timedOut     bool
	timeouts     int

	faultBytes int64
	faultDur   sim.Time
	steadyDur  sim.Time

	completed bool
	aborted   bool
	// recov holds, per schedule window, the delay between the fault
	// clearing and this flow's first progress afterwards.
	recov []sim.Time
}

// Sentinels in Tracked.recov.
const (
	ttrPending sim.Time = -1 // window passed (or pending), no recovery seen yet
	ttrNA      sim.Time = -2 // window outside the flow's lifetime
)

// Done marks the flow finished. completed distinguishes a transfer
// that delivered all its bytes from one cut off by the run ending.
func (t *Tracked) Done(completed bool) {
	if t.endAt >= 0 {
		return
	}
	t.observe(t.m.sim.Now())
	t.endAt = t.m.sim.Now()
	t.completed = completed
	t.closeStall(t.endAt)
	for i, w := range t.m.windows {
		if t.recov[i] == ttrPending && w.Start >= t.endAt {
			t.recov[i] = ttrNA // the flow was gone before this fault hit
		}
	}
}

// Abort marks the flow given up on (application or harness decision).
func (t *Tracked) Abort() {
	if t.endAt >= 0 {
		return
	}
	t.Done(false)
	t.aborted = true
}

// inFault reports whether now falls inside any fault window.
func (m *Monitor) inFault(now sim.Time) bool {
	for _, w := range m.windows {
		if now >= w.Start && now < w.End {
			return true
		}
	}
	return false
}

// observe folds one progress sample at virtual time now into the
// flow's accounting.
func (t *Tracked) observe(now sim.Time) {
	cur := t.progress()
	delta := cur - t.last
	t.last = cur

	if t.m.inFault(now) {
		t.faultBytes += delta
		t.faultDur += MonitorPeriod
	} else {
		t.steadyDur += MonitorPeriod
	}

	if delta > 0 {
		// Progress: close any open stall span and credit recovery to
		// every fault window already behind us.
		t.closeStall(now)
		t.lastChange = now
		for i, w := range t.m.windows {
			if t.recov[i] == ttrPending && now >= w.End {
				t.recov[i] = now - w.End
			}
		}
		return
	}
	idle := now - t.lastChange
	if !t.stalled && idle >= t.m.StallAfter {
		t.stalled = true
		t.stallStart = t.lastChange
		t.stalls++
	}
	if !t.timedOut && idle >= timeoutAfter {
		t.timedOut = true
		t.timeouts++
	}
}

func (t *Tracked) closeStall(now sim.Time) {
	if !t.stalled {
		return
	}
	span := now - t.stallStart
	t.stallTime += span
	if span > t.longestStall {
		t.longestStall = span
	}
	t.stalled = false
	t.timedOut = false
}

func (m *Monitor) tick() {
	if m.closed {
		return
	}
	now := m.sim.Now()
	for _, t := range m.flows {
		if t.endAt < 0 {
			t.observe(now)
		}
	}
	if m.PathRates != nil {
		m.observePaths(now)
	}
	m.sim.After(MonitorPeriod, "chaos-monitor", m.tick)
}

// observePaths folds one per-path delivery-rate sample: into the
// fault or steady accumulator by window membership, and — for every
// fault window already behind us that the path has not delivered
// since — a recovery credit the first time the path's rate comes back
// above zero (quantized to the sampling period, like flow TTRs).
func (m *Monitor) observePaths(now sim.Time) {
	wifi, cell := m.PathRates()
	inFault := m.inFault(now)
	for p, rate := range [2]float64{wifi, cell} {
		if inFault {
			m.pathFault[p].Add(rate)
		} else {
			m.pathSteady[p].Add(rate)
		}
		if rate <= 0 {
			continue
		}
		for i, w := range m.windows {
			if m.pathRecov[p][i] == ttrPending && now >= w.End {
				m.pathRecov[p][i] = now - w.End
			}
		}
	}
}

// Finish stops sampling, finalizes every still-running flow's state at
// the current virtual time, and scores the run. Each flow gets one
// verdict, best first: ok (completed without ever stalling), late
// (completed after at least one stall span — degraded gracefully),
// incomplete (still making progress when the run ended), stalled
// (never completed and not progressing at the end — stalled forever as
// far as this run can tell), aborted (the application or harness gave
// up on it).
func (m *Monitor) Finish() *Report {
	m.closed = true
	now := m.sim.Now()
	r := &Report{Schedule: m.spec, Flows: len(m.flows)}
	var longest, faultDur, steadyDur sim.Time
	var stall, ttr stats.Acc
	for _, t := range m.flows {
		if t.endAt < 0 {
			t.observe(now)
			// Leave endAt unset: the verdict distinguishes stalled
			// from still-progressing via the open stall state.
			if t.stalled {
				// The span is still open; account it through now.
				t.closeStall(now)
				t.stalled = true
			}
		}
		switch {
		case t.aborted:
			r.Aborted++
		case t.completed && t.stalls == 0:
			r.OK++
		case t.completed:
			r.Late++
		case t.stalled:
			r.Stalled++
		default:
			r.Incomplete++
		}
		r.Stalls += t.stalls
		longest = max(longest, t.longestStall)
		if t.stallTime > 0 {
			stall.Add(t.stallTime.Seconds())
		}
		for _, d := range t.recov {
			switch {
			case d >= 0:
				ttr.Add(d.Seconds())
			case d == ttrPending:
				r.Unrecovered++
			}
		}
		r.FaultBytes += t.faultBytes
		r.SteadyBytes += t.last - t.faultBytes
		faultDur += t.faultDur
		steadyDur += t.steadyDur
		r.Timeouts += t.timeouts
	}
	r.LongestStallS = longest.Seconds()
	r.StallMeanS = stall.Mean()
	r.Recoveries = int(ttr.N())
	r.TTRMeanS, r.TTRMaxS = ttr.Mean(), ttr.Max()
	if faultDur > 0 {
		r.FaultBps = 8 * (float64(r.FaultBytes) / faultDur.Seconds())
	}
	if steadyDur > 0 {
		r.SteadyBps = 8 * (float64(r.SteadyBytes) / steadyDur.Seconds())
	}

	var pathTTR [2]stats.Acc
	for p, recov := range m.pathRecov {
		for _, d := range recov {
			if d >= 0 { // else never recovered, or window past run end
				pathTTR[p].Add(d.Seconds())
			}
		}
	}
	r.WiFiFaultBps, r.WiFiSteadyBps = 8*m.pathFault[0].Mean(), 8*m.pathSteady[0].Mean()
	r.CellFaultBps, r.CellSteadyBps = 8*m.pathFault[1].Mean(), 8*m.pathSteady[1].Mean()
	r.WiFiTTRSec, r.CellTTRSec = pathTTR[0].Mean(), pathTTR[1].Mean()

	switch {
	case r.Stalled > 0 || r.Aborted > 0:
		r.Graceful = "failed"
	case r.Incomplete > 0:
		r.Graceful = "degraded"
	default:
		r.Graceful = "graceful"
	}
	return r
}
