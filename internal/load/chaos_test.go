package load

import (
	"bytes"
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"mptcplab/internal/chaos"
	"mptcplab/internal/sim"
	"mptcplab/internal/sweep"
	"mptcplab/internal/units"
)

// chaosConfig is smokeConfig plus a named flap schedule: five WiFi
// outages of 500 ms every 2 s, hitting mid-transfer.
func chaosConfig() Config {
	cfg := smokeConfig()
	sched, err := chaos.Named("flap")
	if err != nil {
		panic(err)
	}
	cfg.Chaos = sched
	return cfg
}

func flapSpec() string {
	sched, _ := chaos.Named("flap")
	return sched.Spec()
}

func TestChaosRunProducesResilience(t *testing.T) {
	res := Run(chaosConfig())
	if res.Violations != 0 {
		t.Fatalf("self-check found %d violations; first: %s", res.Violations, res.FirstViolation)
	}
	if res.Resilience == nil {
		t.Fatal("chaos run produced no resilience report")
	}
	r := res.Resilience
	if res.ChaosSpec != flapSpec() {
		t.Fatalf("ChaosSpec = %q, want canonical flap spec", res.ChaosSpec)
	}
	if len(r.Windows) != 5 {
		t.Fatalf("flap schedule produced %d fault windows, want 5", len(r.Windows))
	}
	if len(r.Marks) < 10 {
		t.Fatalf("only %d fault marks for 5 down/up pairs", len(r.Marks))
	}
	if len(r.Flows) == 0 {
		t.Fatal("no flows tracked")
	}
	if r.FaultDur == 0 || r.SteadyDur == 0 {
		t.Fatalf("fault/steady time split missing: fault=%v steady=%v", r.FaultDur, r.SteadyDur)
	}
	if g := r.Graceful(); g == "" {
		t.Fatal("empty graceful verdict")
	}
}

// TestChaosPerPathTelemetry asserts fade recovery per path: while WiFi
// flaps, the cell path keeps delivering through the fault windows, the
// WiFi delivery rate collapses relative to steady state, and the WiFi
// path earns recovery credits once the radio comes back.
func TestChaosPerPathTelemetry(t *testing.T) {
	res := Run(chaosConfig())
	r := res.Resilience
	if r == nil {
		t.Fatal("chaos run produced no resilience report")
	}
	if r.WiFiFaultRate.N() == 0 || r.WiFiSteadyRate.N() == 0 ||
		r.CellFaultRate.N() == 0 || r.CellSteadyRate.N() == 0 {
		t.Fatal("per-path rate accumulators empty — PathRates not wired")
	}
	if r.CellFaultRate.Mean() <= 0 {
		t.Fatalf("cell path delivered nothing through WiFi fault windows (mean %.0f B/s)",
			r.CellFaultRate.Mean())
	}
	// Absolute rates are higher inside fault windows (they land
	// mid-transfer; steady sampling includes the idle head and tail of
	// the run), so the fade shows up in WiFi's *share* of delivery.
	faultShare := r.WiFiFaultRate.Mean() / (r.WiFiFaultRate.Mean() + r.CellFaultRate.Mean())
	steadyShare := r.WiFiSteadyRate.Mean() / (r.WiFiSteadyRate.Mean() + r.CellSteadyRate.Mean())
	if faultShare >= steadyShare {
		t.Fatalf("WiFi delivery share did not drop during its outages: fault %.3f, steady %.3f",
			faultShare, steadyShare)
	}
	if n := r.WiFiPathTTR.N(); n == 0 {
		t.Fatal("no WiFi recovery credited after any fault window")
	}
	if res.WiFiAckedBytes == 0 || res.CellAckedBytes == 0 {
		t.Fatalf("per-path acked bytes missing: wifi=%d cell=%d",
			res.WiFiAckedBytes, res.CellAckedBytes)
	}
	e := r.Export(res.ChaosSpec)
	if e.CellFaultBps <= 0 || e.WiFiSteadyBps <= 0 {
		t.Fatalf("export dropped per-path telemetry: %+v", e)
	}
}

// TestChaosSweepWorkerInvariance is the PR's golden determinism
// criterion: same seed + schedule, checker armed, serial vs 4 workers,
// all four export writers byte-identical, zero violations.
func TestChaosSweepWorkerInvariance(t *testing.T) {
	base := chaosConfig()
	base.Flows = 0
	opts := SweepOpts{
		Base:  base,
		Rates: []float64{3, 6},
		Reps:  2,
		Seed:  99,
	}
	serial := opts
	serial.Workers = 1
	parallel := opts
	parallel.Workers = 4

	sa, sp := RunSweep(serial), RunSweep(parallel)
	if sa.TotalViolations != 0 || sp.TotalViolations != 0 {
		t.Fatalf("violations: serial %d, parallel %d (first: %s)",
			sa.TotalViolations, sp.TotalViolations, sa.FirstViolation)
	}
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
		{"resilience-csv", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteResilienceCSV(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
		{"resilience-json", func(s *Sweep) []byte {
			var b bytes.Buffer
			if err := s.WriteResilienceJSON(&b, opts.Base); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}},
	} {
		ba, bp := pair.f(sa), pair.f(sp)
		if len(ba) == 0 {
			t.Fatalf("%s export is empty", pair.name)
		}
		if !bytes.Equal(ba, bp) {
			t.Fatalf("%s export differs between -workers 1 and -workers 4", pair.name)
		}
	}
	rows := sa.ExportResilience()
	if len(rows) != 4 {
		t.Fatalf("resilience export has %d rows, want 4", len(rows))
	}
	for _, e := range rows {
		if e.Schedule != flapSpec() {
			t.Fatalf("row schedule %q, want flap spec", e.Schedule)
		}
		if !strings.Contains(e.Replay, "chaos="+e.Schedule) {
			t.Fatalf("replay token %q does not embed the chaos spec", e.Replay)
		}
	}
}

// sabotage installs a testRunHook for the duration of one test. The
// hook fires only for the run whose derived seed matches target.
func sabotage(t *testing.T, target int64, fn func(f *fleet)) {
	t.Helper()
	testRunHook = func(f *fleet) {
		if f.cfg.Seed == target {
			fn(f)
		}
	}
	t.Cleanup(func() { testRunHook = nil })
}

// TestSweepContainsPanickingRun: a run that panics mid-sweep becomes a
// single structured failed row; every other run completes normally.
// The run contains its own panic, so a memoizing interceptor observes
// the failed row — exactly once — and does not store it.
func TestSweepContainsPanickingRun(t *testing.T) {
	opts := SweepOpts{Base: smokeConfig(), Reps: 3, Seed: 17, Workers: 2}
	target := opts.runSeed(0, 1)
	sabotage(t, target, func(f *fleet) { panic("injected fault") })

	st := sweep.NewCache()
	var sawFailed atomic.Int64
	opts.Intercept = func(job SweepJob, run func() Row) Row {
		key, err := sweep.Key(job.Config.ReplayToken(), 0)
		if err != nil {
			t.Error(err)
		}
		row, _ := sweep.Memo(st, key, func(r Row) bool { return !r.Run.Failed }, run)
		if row.Run.Failed {
			sawFailed.Add(1)
		}
		return row
	}

	sw := RunSweep(opts)
	if n := sawFailed.Load(); n != 1 {
		t.Errorf("interceptor observed %d failed rows, want 1", n)
	}
	if stored, _, _ := st.Stats(); stored != 2 {
		t.Errorf("store holds %d rows, want the 2 healthy runs", stored)
	}
	if sw.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", sw.FailedRuns)
	}
	rows := sw.Export()
	if len(rows) != 3 {
		t.Fatalf("exported %d rows, want 3", len(rows))
	}
	var failed, ok int
	for _, e := range rows {
		if e.Failed {
			failed++
			if !strings.Contains(e.FailReason, "injected fault") {
				t.Fatalf("fail reason %q missing panic message", e.FailReason)
			}
			if strings.ContainsAny(e.FailReason, "\n") || strings.Contains(e.FailReason, "goroutine") {
				t.Fatalf("fail reason leaked a stack trace: %q", e.FailReason)
			}
			if e.Seed != target {
				t.Fatalf("failed row has seed %d, want sabotaged %d", e.Seed, target)
			}
			if !strings.Contains(e.Replay, "seed=") {
				t.Fatalf("failed row lost its replay token: %q", e.Replay)
			}
		} else {
			ok++
			if e.Completed == 0 {
				t.Fatalf("healthy run rep=%d completed nothing", e.Rep)
			}
		}
	}
	if failed != 1 || ok != 2 {
		t.Fatalf("failed=%d ok=%d, want 1/2", failed, ok)
	}
}

// TestSweepContainsLivelockedRun: a run whose event loop stops
// advancing virtual time is killed by the watchdog and reported as a
// failed row, while the rest of the sweep completes.
func TestSweepContainsLivelockedRun(t *testing.T) {
	opts := SweepOpts{Base: smokeConfig(), Reps: 3, Seed: 23, Workers: 2}
	target := opts.runSeed(0, 2)
	sabotage(t, target, func(f *fleet) {
		var spin func()
		spin = func() { f.topo.Sim.At(f.topo.Sim.Now(), "spin", spin) }
		f.topo.Sim.At(5*sim.Second, "spin", spin)
	})

	sw := RunSweep(opts)
	if sw.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", sw.FailedRuns)
	}
	var found bool
	for _, e := range sw.Export() {
		if !e.Failed {
			continue
		}
		found = true
		if e.Seed != target {
			t.Fatalf("livelocked row has seed %d, want %d", e.Seed, target)
		}
		if !strings.Contains(e.FailReason, "livelock") {
			t.Fatalf("fail reason %q does not name the livelock", e.FailReason)
		}
	}
	if !found {
		t.Fatal("no failed row exported for the livelocked run")
	}
}

// TestSweepCancelExportsPartial: cancelling mid-sweep stops new runs
// but keeps every completed row exportable.
func TestSweepCancelExportsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := SweepOpts{
		Base: smokeConfig(), Reps: 5, Seed: 31, Workers: 1,
		Context: ctx,
		Progress: func(done, total int) {
			if done == 2 {
				cancel()
			}
		},
	}
	sw := RunSweep(opts)
	if !sw.Cancelled {
		t.Fatal("sweep not marked cancelled")
	}
	rows := sw.Export()
	if len(rows) != 2 {
		t.Fatalf("partial export has %d rows, want the 2 completed before cancel", len(rows))
	}
	var csv, res bytes.Buffer
	if err := sw.WriteCSV(&csv, opts.Base); err != nil {
		t.Fatalf("partial CSV export: %v", err)
	}
	if err := sw.WriteResilienceCSV(&res, opts.Base); err != nil {
		t.Fatalf("partial resilience export: %v", err)
	}
}

// TestSweepCancelBeforeStart: an already-cancelled context yields an
// empty but well-formed sweep at any worker count.
func TestSweepCancelBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		sw := RunSweep(SweepOpts{
			Base: smokeConfig(), Reps: 2, Seed: 5, Workers: workers, Context: ctx,
		})
		if !sw.Cancelled {
			t.Fatalf("workers=%d: not marked cancelled", workers)
		}
		if n := len(sw.Export()); n != 0 {
			t.Fatalf("workers=%d: pre-cancelled sweep exported %d rows", workers, n)
		}
	}
}

// TestDoubleRestoreJoinsOnce pins the world's "live" predicate at fleet
// scale: a join still handshaking counts as live, so two Restores 10 ms
// apart — shorter than a WiFi join handshake — rejoin every flow that
// lost its WiFi subflow exactly once. (An "established" predicate
// stacks a duplicate join behind the pending one.)
func TestDoubleRestoreJoinsOnce(t *testing.T) {
	cfg := Config{
		Clients: 10, Flows: 12, Duration: sim.Second, Drain: 30 * sim.Second,
		Sizes: FixedSize(4 * units.MB), Transports: TransportMix{MPTCP: 1},
		Seed: 5, SelfCheck: true,
	}
	subflows := func(f *fleet) map[int]int {
		n := map[int]int{}
		for _, fl := range f.sortedActive() {
			n[fl.id] = len(fl.cli.Conn.Subflows())
		}
		return n
	}
	var before, after map[int]int
	sabotage(t, cfg.Seed, func(f *fleet) {
		withdraw, restore := f.topo.Handover(f.live)
		s := f.topo.Sim
		s.At(2*sim.Second, "test.withdraw", func() { withdraw(chaos.WiFi) })
		s.At(3*sim.Second, "test.restore", func() { before = subflows(f); restore(chaos.WiFi) })
		s.At(3*sim.Second+10*sim.Millisecond, "test.restore-again", func() { restore(chaos.WiFi) })
		s.At(4*sim.Second, "test.count", func() { after = subflows(f) })
	})
	res := Run(cfg)
	if res.Violations != 0 || res.Failed {
		t.Fatalf("violations %d (first: %s), failed %v", res.Violations, res.FirstViolation, res.Failed)
	}
	if len(before) != cfg.Flows {
		t.Fatalf("%d of %d flows were live at the restore", len(before), cfg.Flows)
	}
	for id, n := range before {
		if got, still := after[id]; still && got != n+1 {
			t.Errorf("flow %d: %d subflows after two restores, want %d (one rejoin)", id, got, n+1)
		}
	}
	if len(after) == 0 {
		t.Fatal("no flow survived to be counted")
	}
}

// TestStormRunsClean runs the fleet under handover storms with the
// checker armed — a regular WiFi storm, and the overlapping tight pair
// whose cycles are shorter than a join handshake — and requires zero
// violations. The second case's counts are what the one "live"
// predicate yields (43 completions and 68,620 duplicate bytes with the
// fleet's former "established" one).
func TestStormRunsClean(t *testing.T) {
	for _, tc := range []struct {
		spec             string
		mix              TransportMix
		completed, dupRx int64
	}{
		{"storm:path=wifi;at=1s;dur=6s;every=500ms", TransportMix{WiFi: 0.3, Cell: 0.2, MPTCP: 0.5}, -1, -1},
		{"storm:path=cell;at=1s;dur=6s;every=100ms+storm:path=both;at=1s;dur=6s;every=130ms", TransportMix{MPTCP: 1}, 45, 11680},
	} {
		sched, err := chaos.Parse(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		sw := RunSweep(SweepOpts{Base: Config{
			Clients: 40, Duration: 10 * sim.Second, Drain: 20 * sim.Second,
			Transports: tc.mix, Chaos: sched, SelfCheck: true,
		}, Rates: []float64{8}, Seed: 42, Workers: 1})
		res := sw.Points[0].Runs[0]
		if res.Violations != 0 || res.Failed || res.Resilience == nil || res.Completed == 0 {
			t.Fatalf("%s: violations %d (first: %s), failed %v, completed %d",
				tc.spec, res.Violations, res.FirstViolation, res.Failed, res.Completed)
		}
		if tc.completed >= 0 && (int64(res.Completed) != tc.completed || res.DupRxBytes != tc.dupRx) {
			t.Errorf("%s: %d completions, %d duplicate bytes received; want %d, %d",
				tc.spec, res.Completed, res.DupRxBytes, tc.completed, tc.dupRx)
		}
	}
}
