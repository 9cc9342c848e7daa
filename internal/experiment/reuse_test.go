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
// through the warm pools. The dirtying runs are an MP-4 and then a
// single-path download, so the recycled connection objects come in
// other shapes than the measured run needs: more subflows and
// endpoints than an MP-2 run takes, and buffers grown by other flows.
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

		// Dirty a testbed with unrelated runs, then Reset to cfgA.
		reusedTB := NewTestbed(cfgB)
		reusedTB.Run(RunConfig{Transport: MP4, Size: 128 * units.KB})
		reusedTB.Reset(cfgB)
		reusedTB.Run(RunConfig{Transport: SPCell, Size: 512 * units.KB})
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

// TestWarmRunRecycles: a run on a warm testbed takes its connection
// objects from the ones the run before it made, so with its Reset it
// allocates well under what the same run on a fresh testbed does. A
// warm world without recycling still saves its links and pools, about
// a quarter of the fresh count; recycling saves about half (200 of
// 415). MPTCP connection and subflow recycling is part of what keeps
// it under the bound: with only endpoints recycled a warm run allocates
// 269 of 405, a ratio of 0.66.
func TestWarmRunRecycles(t *testing.T) {
	rc := RunConfig{Transport: MP2, Size: 64 * units.KB}
	fresh := testing.AllocsPerRun(10, func() { NewTestbed(reuseBenchCfg(1)).Run(rc) })
	tb := NewTestbed(reuseBenchCfg(0))
	tb.Run(rc)
	warm := testing.AllocsPerRun(10, func() {
		tb.Reset(reuseBenchCfg(1))
		tb.Run(rc)
	})
	t.Logf("allocations per run: fresh testbed %.0f, warm %.0f", fresh, warm)
	if warm > 0.6*fresh {
		t.Errorf("a warm run allocates %.0f objects, a fresh one %.0f: recycling saves too little", warm, fresh)
	}
}

// The reuse benchmarks measure what Testbed.Reset buys a sweep worker:
// the same small run with a fresh world per iteration versus one
// reused testbed. DESIGN.md §7 quotes what reuse bought the 1,024-run
// fig4 campaign.
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
// objects, most of a campaign's bytes (DESIGN.md §7.5).
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
	useIdle(t, nil) // whichever campaigns ran before, the first pass builds the testbed
	pass()          // one-time initialisation; the measured pass starts from the testbed it leaves
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	runs := pass()
	runtime.ReadMemStats(&m1)
	if runs != 128 {
		t.Fatalf("%d runs completed, want 128", runs)
	}
	perRun := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
	t.Logf("%d runs, %.0f bytes allocated per run", runs, perRun)
	// 75,669 since each cell's pooled series is sized once and the
	// measured pass starts from the testbed the first one left idle
	// (79,460 with the series alone; 97,693 while AddAll regrew them by
	// doubling). The ceiling is 75,669 plus 25 %, rounded up; under
	// -race the test reads 87,944.
	const ceiling = 95000
	if perRun > ceiling {
		t.Errorf("%.0f bytes allocated per run, ceiling %d", perRun, ceiling)
	}
}
