package load

import (
	"bytes"
	"runtime"
	"testing"

	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// smokeConfig is a small fleet that still exercises every moving part:
// mixed transports, background traffic, self-check armed.
func smokeConfig() Config {
	return Config{
		Clients:    20,
		Flows:      60,
		Duration:   10 * sim.Second,
		Drain:      20 * sim.Second,
		Transports: TransportMix{WiFi: 0.25, Cell: 0.15, MPTCP: 0.60},
		Background: Background{WiFiDown: 2 * units.Mbps, CellDown: 1 * units.Mbps},
		Seed:       7,
		SelfCheck:  true,
	}
}

func TestFleetSmokeCompletes(t *testing.T) {
	res, f := runFleetIn(world.New(), smokeConfig())
	if res.Offered != 60 || res.Started != 60 {
		t.Fatalf("offered %d started %d, want 60/60", res.Offered, res.Started)
	}
	if res.Completed+res.Incomplete != res.Started {
		t.Fatalf("completed %d + incomplete %d != started %d",
			res.Completed, res.Incomplete, res.Started)
	}
	if res.Completed < res.Started*9/10 {
		t.Fatalf("only %d/%d flows completed within drain", res.Completed, res.Started)
	}
	if res.Violations != 0 {
		t.Fatalf("self-check found %d violations; first: %s", res.Violations, res.FirstViolation)
	}
	if res.FCT.N() != int64(res.Completed) {
		t.Fatalf("FCT histogram has %d samples, want %d", res.FCT.N(), res.Completed)
	}
	if res.WiFiBytes == 0 || res.CellBytes == 0 {
		t.Fatalf("expected traffic on both paths, got wifi=%d cell=%d", res.WiFiBytes, res.CellBytes)
	}
	if j := res.Goodput.Jain(); j <= 0 || j > 1 {
		t.Fatalf("Jain index %v out of (0,1]", j)
	}
	// Completed flows must be fully released: live memory is O(active
	// flows), and after a full drain nothing should remain.
	if res.Incomplete == 0 && (len(f.active) != 0 || len(f.byClientAddr) != 0) {
		t.Fatalf("engine retained %d active / %d addr entries after full drain",
			len(f.active), len(f.byClientAddr))
	}
}

func TestFleetClosedLoopSessions(t *testing.T) {
	cfg := Config{
		Clients:   10,
		Sessions:  8,
		ThinkMean: 500 * sim.Millisecond,
		Sizes:     FixedSize(16 * units.KB),
		Duration:  10 * sim.Second,
		Seed:      11,
		SelfCheck: true,
	}
	res := Run(cfg)
	// Each session should cycle several times in 10 s of sim time.
	if res.Completed < 2*cfg.Sessions {
		t.Fatalf("closed loop completed only %d flows for %d sessions", res.Completed, cfg.Sessions)
	}
	if res.Violations != 0 {
		t.Fatalf("violations: %d (%s)", res.Violations, res.FirstViolation)
	}
}

// TestFleetDeterministic: equal seeds give byte-identical exports.
func TestFleetDeterministic(t *testing.T) {
	opts := SweepOpts{Base: smokeConfig(), Reps: 2, Seed: 42, Workers: 1}
	a, b := RunSweep(opts), RunSweep(opts)
	var ba, bb bytes.Buffer
	if err := a.WriteCSV(&ba, opts.Base); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bb, opts.Base); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatalf("same seed produced different exports:\n%s\nvs\n%s", ba.String(), bb.String())
	}
}

// TestSweepWorkerInvariance: the export is byte-identical for any
// worker count — the acceptance criterion that makes parallel
// campaigns trustworthy.
func TestSweepWorkerInvariance(t *testing.T) {
	base := smokeConfig()
	base.Flows = 0
	opts := SweepOpts{
		Base:  base,
		Rates: []float64{2, 6},
		Reps:  2,
		Seed:  1234,
	}
	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 4

	sa, sp := RunSweep(serial), RunSweep(parallel)
	for _, pair := range []struct {
		name string
		f    func(*Sweep) []byte
	}{
		{"csv", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteCSV(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"json", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteJSON(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
	} {
		if !bytes.Equal(pair.f(sa), pair.f(sp)) {
			t.Fatalf("%s export differs between -workers 1 and -workers 4", pair.name)
		}
	}
	if sa.TotalViolations != 0 || sp.TotalViolations != 0 {
		t.Fatalf("violations: serial %d, parallel %d", sa.TotalViolations, sp.TotalViolations)
	}
}

// TestFleetStatsMemoryBounded: the result's estimator footprint is
// fixed by histogram geometry, independent of how many flows ran.
func TestFleetStatsMemoryBounded(t *testing.T) {
	small := smokeConfig()
	small.Flows = 20
	small.SelfCheck = false
	big := small
	big.Flows = 200
	big.Duration = 20 * sim.Second

	rs, fs := runFleetIn(world.New(), small)
	rb, fb := runFleetIn(world.New(), big)
	if rb.Completed <= rs.Completed {
		t.Fatalf("big run completed %d <= small run %d", rb.Completed, rs.Completed)
	}
	for _, pair := range [][2]int{
		{rs.FCT.Bins(), rb.FCT.Bins()},
		{rs.FCTSmall.Bins(), rb.FCTSmall.Bins()},
		{rs.FCTLarge.Bins(), rb.FCTLarge.Bins()},
	} {
		if pair[0] != fctBins || pair[1] != fctBins {
			t.Fatalf("histogram bins %v, want %d regardless of flow count", pair, fctBins)
		}
	}
	// Lifecycle maps must not accumulate completed flows.
	if n := len(fs.active) + len(fb.active); n != rs.Incomplete+rb.Incomplete {
		t.Fatalf("active maps hold %d entries, want %d (the incomplete flows)",
			n, rs.Incomplete+rb.Incomplete)
	}
	_ = runtime.NumGoroutine // keep runtime imported alongside alloc test below
}

// TestFleetSetupAllocsOffHotPath: scaling per-flow *bytes* by 32x must
// not scale allocations anywhere near 32x — transfer bytes ride the
// pooled segment hot path; only per-flow setup allocates.
func TestFleetSetupAllocsOffHotPath(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement needs full runs")
	}
	base := Config{
		Clients:  10,
		Flows:    30,
		Duration: 5 * sim.Second,
		Drain:    60 * sim.Second,
		Seed:     3,
	}
	small := base
	small.Sizes = FixedSize(16 * units.KB)
	big := base
	big.Sizes = FixedSize(512 * units.KB)

	measure := func(cfg Config) uint64 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := Run(cfg)
		runtime.ReadMemStats(&after)
		if res.Completed != cfg.Flows {
			t.Fatalf("only %d/%d flows completed", res.Completed, cfg.Flows)
		}
		return after.Mallocs - before.Mallocs
	}
	measure(small) // warm pools and lazy init once
	a := measure(small)
	b := measure(big)
	if b > 4*a {
		t.Fatalf("32x bytes cost %dx allocations (%d -> %d); transfer bytes are hitting an allocating path",
			b/a, a, b)
	}
}

// TestOpenLoopKeepsOneArrivalPending: an open-loop run reserves every
// arrival's slot at wiring time but queues only the next one, so a
// rate-40 run's ~1,200 arrivals do not sit in the event heap for the
// whole run — and every one of them still fires.
func TestOpenLoopKeepsOneArrivalPending(t *testing.T) {
	pending := -1
	testRunHook = func(f *fleet) { pending = f.topo.Sim.Pending() }
	t.Cleanup(func() { testRunHook = nil })
	res := RunIn(world.New(), Config{Clients: 100, Rate: 40, Duration: 30 * sim.Second, Seed: 3})
	if pending < 0 || pending > 4 {
		t.Errorf("%d events pending after wiring, want at most 4", pending)
	}
	if res.Offered < 1000 || res.Started != res.Offered {
		t.Errorf("offered %d, started %d: the arrival chain broke", res.Offered, res.Started)
	}
}
