package experiment

import (
	"io"
	"reflect"
	"runtime"
	"testing"

	"mptcplab/internal/chaos"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/units"
)

// TestTestbedResetDeterminism is the arena-reuse contract: a run on a
// Reset testbed must be byte-identical to the same run on a fresh one,
// even when the testbed previously executed a different config (other
// profiles, 4-path topology, chaos schedule) whose state must not leak
// through the warm pools.
func TestTestbedResetDeterminism(t *testing.T) {
	cfgA := TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: true, WarmRadio: true, Seed: 7,
	}
	cfgB := TestbedConfig{
		WiFi: pathmodel.CoffeeShop(), Cell: pathmodel.Sprint(),
		SampleProfiles: true, WarmRadio: true, Seed: 11,
		ServerSecondIface: true,
	}
	runs := []RunConfig{
		{Transport: MP2, Size: 256 * units.KB},
		{Transport: SPWiFi, Size: 128 * units.KB},
	}
	if sched, err := chaos.Parse("flap:path=wifi;at=1s;dur=300ms;every=2s;n=2"); err != nil {
		t.Fatal(err)
	} else {
		runs = append(runs, RunConfig{Transport: MP2, Size: 256 * units.KB, Chaos: sched})
	}

	for i, rc := range runs {
		fresh := NewTestbed(cfgA).Run(rc)

		// Dirty a testbed with an unrelated run, then Reset to cfgA.
		reusedTB := NewTestbed(cfgB)
		reusedTB.Run(RunConfig{Transport: MP4, Size: 128 * units.KB})
		reusedTB.Reset(cfgA)
		reused := reusedTB.Run(rc)

		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("run %d: reused testbed diverged from fresh\nfresh:  %+v\nreused: %+v", i, fresh, reused)
		}

		// A second Reset on the same instance must be just as clean.
		reusedTB.Reset(cfgA)
		again := reusedTB.Run(rc)
		if !reflect.DeepEqual(fresh, again) {
			t.Errorf("run %d: second reuse diverged from fresh", i)
		}
	}
}

// The reuse benchmarks measure what Testbed.Reset buys a sweep worker:
// the same small run with a fresh world per iteration versus one
// reused testbed. Run with -benchtime=1000x for the 1k-run campaign
// comparison quoted in EXPERIMENTS.md.
func reuseBenchRun(tb *Testbed, b *testing.B) {
	res := tb.Run(RunConfig{Transport: MP2, Size: 64 * units.KB})
	if !res.Completed {
		b.Fatal("download failed")
	}
}

func reuseBenchCfg(i int) TestbedConfig {
	return TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: true, WarmRadio: true, Seed: int64(i),
	}
}

// The *Only pair isolates world construction from the run: the gap
// between them is what Reset saves, and their absolute level is what
// the fast-seeding RNG source (internal/sim/fastrand.go) attacks.
func BenchmarkNewTestbedOnly(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewTestbed(reuseBenchCfg(i))
	}
}

func BenchmarkResetTestbedOnly(b *testing.B) {
	b.ReportAllocs()
	tb := NewTestbed(reuseBenchCfg(0))
	for i := 0; i < b.N; i++ {
		tb.Reset(reuseBenchCfg(i))
	}
}

func BenchmarkRunFreshTestbed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reuseBenchRun(NewTestbed(reuseBenchCfg(i)), b)
	}
}

func BenchmarkRunReusedTestbed(b *testing.B) {
	b.ReportAllocs()
	var tb *Testbed
	for i := 0; i < b.N; i++ {
		if tb == nil {
			tb = NewTestbed(reuseBenchCfg(i))
		} else {
			tb.Reset(reuseBenchCfg(i))
		}
		reuseBenchRun(tb, b)
	}
}

// TestCampaignBytesPerRun gates what a campaign run costs in bytes,
// from the run to the export. Object counts (TestDownloadAllocBudget,
// paperbench's allocs/run) cannot see a per-packet series regrown by
// doubling in its collector and again in its cell's pooled sample: few
// objects, most of a campaign's bytes (DESIGN.md §23).
func TestCampaignBytesPerRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two SmallFlows campaigns")
	}
	pass := func() (runs int) {
		m := SmallFlows(CampaignOpts{Reps: 4, Seed: 3, SampleProfiles: true, Workers: 1})
		if err := WriteCSV(io.Discard, m); err != nil {
			t.Fatal(err)
		}
		for _, e := range m.Export() {
			runs += e.N
		}
		return runs
	}
	pass() // one-time initialisation; within a pass the worker's testbed is built once and reused
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs := pass()
	runtime.ReadMemStats(&m1)
	if runs != 128 {
		t.Fatalf("%d runs completed, want 128", runs)
	}
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
	t.Logf("%d runs, %.0f bytes allocated per run", runs, perRun)
	// 108,175 since a series is written once and copied once (152,244
	// before), plus 25 %.
	const ceiling = 135000
	if perRun > ceiling {
		t.Errorf("%.0f bytes allocated per run, ceiling %d", perRun, ceiling)
	}
}
