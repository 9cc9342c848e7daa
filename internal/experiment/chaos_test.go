package experiment

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

func mustSchedule(t *testing.T, spec string) chaos.Schedule {
	t.Helper()
	sched, err := chaos.Parse(spec)
	if err != nil {
		t.Fatalf("chaos.Parse(%q): %v", spec, err)
	}
	return sched
}

// TestChaosOutageMPTCPvsSPWiFi reproduces the paper's §6 resilience
// claim through the chaos layer: during a mid-transfer WiFi outage,
// MPTCP's time-to-recover is bounded by reinjection onto the surviving
// cellular subflow, while single-path TCP over WiFi can only sit in
// RTO backoff until the outage ends.
func TestChaosOutageMPTCPvsSPWiFi(t *testing.T) {
	run := func(transport Transport) RunResult {
		tb := NewTestbed(TestbedConfig{
			WiFi: baselineWiFi(), Cell: baselineCell(), WarmRadio: true, Seed: 61,
		})
		return tb.Run(RunConfig{
			Transport: transport,
			Size:      8 * units.MB,
			Chaos:     mustSchedule(t, "outage:path=wifi;at=2s;dur=3s"),
			SelfCheck: true,
		})
	}

	mp := run(MP2)
	sp := run(SPWiFi)
	for name, res := range map[string]RunResult{"MP-2": mp, "SP-WiFi": sp} {
		if res.Violations != 0 {
			t.Fatalf("%s: %d violations; first: %s", name, res.Violations, res.FirstViolation)
		}
		if res.Resilience == nil {
			t.Fatalf("%s: no resilience report", name)
		}
		if !res.Completed {
			t.Fatalf("%s: download did not complete", name)
		}
	}

	// MPTCP keeps moving bytes through the outage on cellular; its
	// recovery time is small and bounded.
	mpTTR := mp.Resilience.TTRAcc
	if mpTTR.N() != 1 {
		t.Fatalf("MP-2 recorded %d recoveries, want 1", mpTTR.N())
	}
	if ttr := mpTTR.Mean(); ttr > 1.0 {
		t.Errorf("MP-2 time-to-recover %.3fs, want < 1s (reinjection-bounded)", ttr)
	}
	if mp.Resilience.FaultBytes == 0 {
		t.Error("MP-2 moved no bytes during the outage; expected cellular to carry traffic")
	}
	if g := mp.Resilience.Graceful(); g != "graceful" {
		t.Errorf("MP-2 verdict %q, want graceful", g)
	}

	// Single-path WiFi stalls for the outage: apart from monitor
	// tick-boundary attribution slop, nothing moves during the fault
	// window, and the monitor scores one long stall spanning it. (The
	// flow still completes after the link returns, so its end verdict
	// is recovery, not failure — the contrast with MPTCP is the stall
	// span and the dead fault window.)
	if fg, sg := sp.Resilience.FaultGoodput(), sp.Resilience.SteadyGoodput(); fg > sg/10 {
		t.Errorf("SP-WiFi fault-window goodput %.0f B/s vs steady %.0f B/s; a WiFi blackout should starve it", fg, sg)
	}
	if sp.Resilience.FaultBytes >= mp.Resilience.FaultBytes {
		t.Errorf("SP-WiFi moved %d bytes during the outage, MP-2 moved %d; aggregation should win",
			sp.Resilience.FaultBytes, mp.Resilience.FaultBytes)
	}
	if sp.Resilience.TotalStalls == 0 {
		t.Error("SP-WiFi recorded no stalls across a 3s outage")
	}
	if ls := sp.Resilience.LongestStall; ls < 2*sim.Second {
		t.Errorf("SP-WiFi longest stall %v, want >= 2s (blacked out for 3s)", ls)
	}
	if mpLS, spLS := mp.Resilience.LongestStall, sp.Resilience.LongestStall; mpLS >= spLS {
		t.Errorf("MP-2 longest stall %v not shorter than SP-WiFi's %v", mpLS, spLS)
	}
}

// TestChaosStormHandover drives the handover storm (withdraw/re-add
// churn) against MP-2 and requires the transfer to survive it.
func TestChaosStormHandover(t *testing.T) {
	tb := NewTestbed(TestbedConfig{
		WiFi: baselineWiFi(), Cell: baselineCell(), WarmRadio: true, Seed: 7,
	})
	res := tb.Run(RunConfig{
		Transport: MP2,
		Size:      4 * units.MB,
		Chaos:     mustSchedule(t, "storm:path=wifi;at=1s;dur=2s;every=500ms"),
		SelfCheck: true,
	})
	if res.Violations != 0 {
		t.Fatalf("%d violations; first: %s", res.Violations, res.FirstViolation)
	}
	if !res.Completed {
		t.Fatal("download did not survive the handover storm")
	}
	if res.Subflows < 3 {
		t.Errorf("server saw %d subflows; a storm of rejoins should leave > 2", res.Subflows)
	}
}

// TestMatrixChaosDeterminism: campaigns whose rows carry chaos
// schedules stay byte-identical across worker counts.
func TestMatrixChaosDeterminism(t *testing.T) {
	rows := []RowSpec{{
		Label: "MP-2 flap", WiFi: baselineWiFi(), Cell: baselineCell(),
		Make: func(size units.ByteCount) RunConfig {
			return RunConfig{
				Transport: MP2, Size: size,
				Chaos: mustSchedule(t, "flap:path=wifi;at=1s;dur=300ms;every=1s;n=3"),
			}
		},
	}}
	sizes := []units.ByteCount{256 * units.KB, units.MB}
	export := func(workers int) []byte {
		m := runMatrix("chaos-det", "chaos determinism probe", rows, sizes,
			CampaignOpts{Reps: 2, Seed: 77, SampleProfiles: true, Workers: workers})
		var buf bytes.Buffer
		if err := WriteJSON(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := export(1)
	if got := export(4); !bytes.Equal(got, serial) {
		t.Error("chaos campaign export differs between 1 and 4 workers")
	}
}

// sabotageMatrix installs testMatrixHook for one test, firing only on
// the testbed with the target seed.
func sabotageMatrix(t *testing.T, target int64, fn func(tb *Testbed)) {
	t.Helper()
	testMatrixHook = func(tb *Testbed) {
		if tb.cfg.Seed == target {
			fn(tb)
		}
	}
	t.Cleanup(func() { testMatrixHook = nil })
}

// TestMatrixContainsPanickingRun: one run panicking mid-campaign is
// contained as a cell failure; the rest of the campaign completes. The
// run contains its own panic, so a memoizing interceptor observes the
// failed result — exactly once — and does not store it.
func TestMatrixContainsPanickingRun(t *testing.T) {
	opts := CampaignOpts{Reps: 3, Seed: 13, Workers: 2}
	target := sweep.Seed(opts.Seed, 0, 0, 1)
	sabotageMatrix(t, target, func(tb *Testbed) { panic("injected matrix fault") })

	st := sweep.NewCache()
	var sawFailed atomic.Int64
	opts.Intercept = func(job CampaignJob, run func() RunResult) RunResult {
		key, err := sweep.Key(job, job.Seed)
		if err != nil {
			t.Error(err)
		}
		res, _ := sweep.Memo(st, key, func(r RunResult) bool { return r.FailReason == "" }, run)
		if res.FailReason != "" {
			sawFailed.Add(1)
			if job.Seed != target {
				t.Errorf("interceptor saw job seed %d fail, want the sabotaged %d", job.Seed, target)
			}
		}
		return res
	}

	sizes := []units.ByteCount{64 * units.KB}
	m := runMatrix("contain", "panic containment probe", parallelTestRows(), sizes, opts)
	if n := sawFailed.Load(); n != 1 {
		t.Errorf("interceptor observed %d failed results, want 1", n)
	}
	if stored, _, _ := st.Stats(); stored != len(m.Rows)*opts.Reps-1 {
		t.Errorf("store holds %d results, want every run but the failed one (%d)", stored, len(m.Rows)*opts.Reps-1)
	}
	if m.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", m.FailedRuns)
	}
	if !strings.Contains(m.FirstFailure, "injected matrix fault") {
		t.Fatalf("FirstFailure %q missing the panic message", m.FirstFailure)
	}
	if strings.Contains(m.FirstFailure, "goroutine") {
		t.Fatalf("FirstFailure leaked a stack trace: %q", m.FirstFailure)
	}
	var failures, samples int
	for _, row := range m.Rows {
		for _, c := range row.Cells {
			failures += c.Failures
			samples += c.Times.N()
		}
	}
	if failures != 1 {
		t.Errorf("cells recorded %d failures, want exactly the sabotaged run", failures)
	}
	if want := len(m.Rows)*opts.Reps - 1; samples != want {
		t.Errorf("cells hold %d completed samples, want %d", samples, want)
	}
}

// TestMatrixContainsLivelockedRun: a run whose event loop spins
// without advancing virtual time is killed by the watchdog and scored
// as that cell's failure.
func TestMatrixContainsLivelockedRun(t *testing.T) {
	opts := CampaignOpts{Reps: 2, Seed: 19, Workers: 2}
	target := sweep.Seed(opts.Seed, 1, 0, 0)
	sabotageMatrix(t, target, func(tb *Testbed) {
		// Wedge the event loop mid-transfer: a self-rescheduling event
		// that never lets virtual time advance.
		var spin func()
		spin = func() { tb.Sim.At(tb.Sim.Now(), "spin", spin) }
		tb.Sim.At(sim.Millisecond, "spin", spin)
	})

	sizes := []units.ByteCount{64 * units.KB}
	m := runMatrix("livelock", "livelock containment probe", parallelTestRows(), sizes, opts)
	if m.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", m.FailedRuns)
	}
	if !strings.Contains(m.FirstFailure, "livelock") {
		t.Fatalf("FirstFailure %q does not name the livelock", m.FirstFailure)
	}
}

// TestMatrixCancelPartial: cancelling mid-campaign yields a partial
// but exportable matrix.
func TestMatrixCancelPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := CampaignOpts{
		Reps: 4, Seed: 29, Workers: 1, Context: ctx,
		Progress: func(done, total int) {
			if done == 3 {
				cancel()
			}
		},
	}
	sizes := []units.ByteCount{64 * units.KB}
	m := runMatrix("cancel", "cancellation probe", parallelTestRows(), sizes, opts)
	if !m.Cancelled {
		t.Fatal("matrix not marked cancelled")
	}
	var absorbed int
	for _, row := range m.Rows {
		for _, c := range row.Cells {
			absorbed += c.Times.N() + c.Failures
		}
	}
	if absorbed != 3 {
		t.Fatalf("absorbed %d runs, want the 3 completed before cancel", absorbed)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, m); err != nil {
		t.Fatalf("partial export: %v", err)
	}
	if buf.Len() == 0 {
		t.Fatal("partial export is empty")
	}
}
