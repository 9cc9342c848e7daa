package load

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mptcplab/internal/chaos"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/sweep"
)

// TestGoldenLoadExports pins the fleet engine's exports byte-for-byte,
// the way TestGoldenSmallFlowsExports pins the campaign runner's. The
// fixtures are mptcpload's output for the `make loadsmoke` and
// `make chaos-smoke` flag sets, plus the chaos-smoke shape under a
// handover storm (the one schedule that drives the address-level
// withdraw/restore hooks), recorded before the engine moved onto
// internal/world. They change only when protocol behavior
// intentionally changes: regenerate with cmd/mptcpload and the flags
// in each case's comment.
func TestGoldenLoadExports(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full load sweeps")
	}
	mix, err := ParseTransportMix("wifi=0.3,cell=0.2,mptcp=0.5")
	if err != nil {
		t.Fatal(err)
	}
	// mptcpload's flag defaults.
	base := Config{
		WiFi: pathmodel.CoffeeShop(), Cell: pathmodel.ATT(),
		Sizes: SmallFlowMix(), Transports: mix,
		ThinkMean: 2 * sim.Second, SelfCheck: true,
	}
	// -clients 60 -rates 3,10 -duration 15s -drain 15s -reps 2 -seed 42
	smoke := base
	smoke.Clients, smoke.Duration, smoke.Drain = 60, 15*sim.Second, 15*sim.Second
	// -clients 40 -rates 4,8 -duration 10s -drain 20s -reps 2 -seed 42 -chaos <spec>
	chaosBase := base
	chaosBase.Clients, chaosBase.Duration, chaosBase.Drain = 40, 10*sim.Second, 20*sim.Second

	for _, tc := range []struct {
		name  string
		base  Config
		rates []float64
		chaos string
	}{
		{"loadsmoke", smoke, []float64{3, 10}, ""},
		{"chaos", chaosBase, []float64{4, 8}, "flap:path=wifi;at=2s;dur=400ms;every=2s;n=3"},
		{"storm", chaosBase, []float64{4, 8}, "storm:path=wifi;at=1s;dur=6s;every=500ms"},
	} {
		cfg := tc.base
		if cfg.Chaos, err = chaos.Parse(tc.chaos); err != nil {
			t.Fatal(err)
		}
		check := func(what string, sw *Sweep) {
			t.Helper()
			if sw.TotalViolations != 0 || sw.FailedRuns != 0 {
				t.Errorf("%s %s: %d violations (first: %s), %d failed runs",
					tc.name, what, sw.TotalViolations, sw.FirstViolation, sw.FailedRuns)
			}
			writers := map[string]func(io.Writer, Config) error{
				"golden_" + tc.name + ".csv":  sw.WriteCSV,
				"golden_" + tc.name + ".json": sw.WriteJSON,
			}
			if tc.chaos != "" {
				writers["golden_"+tc.name+"_resilience.csv"] = sw.WriteResilienceCSV
				writers["golden_"+tc.name+"_resilience.json"] = sw.WriteResilienceJSON
			}
			for file, write := range writers {
				want, err := os.ReadFile(filepath.Join("testdata", file))
				if err != nil {
					t.Fatal(err)
				}
				var got bytes.Buffer
				if err := write(&got, cfg); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), want) {
					t.Errorf("%s %s: export differs from %s", tc.name, what, file)
				}
			}
		}
		for _, workers := range []int{1, 4} {
			opts := SweepOpts{Base: cfg, Rates: tc.rates, Reps: 2, Seed: 42, Workers: workers}
			check(fmt.Sprintf("workers=%d", workers), RunSweep(opts))

			// The same sweep behind a memoizing Intercept, the way mptcpd
			// runs it: cold it executes everything, warm it executes
			// nothing, and both export the fixture's bytes.
			st := sweep.NewCache()
			var hits atomic.Int64
			opts.Intercept = func(job SweepJob, run func() Row) Row {
				key, err := sweep.Key(job.Config.ReplayToken(), 0)
				if err != nil {
					t.Error(err)
				}
				row, hit := sweep.Memo(st, key, func(r Row) bool { return !r.Run.Failed }, run)
				if hit {
					hits.Add(1)
				}
				return row
			}
			for _, pass := range []string{"cold", "warm"} {
				hits.Store(0)
				sw := RunSweep(opts)
				check(fmt.Sprintf("workers=%d memo %s", workers, pass), sw)
				live := 0
				for _, p := range sw.Points {
					for _, res := range p.Runs {
						if res != nil {
							live++
						}
					}
				}
				runs := len(sw.Export())
				wantHits, wantLive := 0, runs
				if pass == "warm" {
					wantHits, wantLive = runs, 0
				}
				if int(hits.Load()) != wantHits || live != wantLive {
					t.Errorf("%s workers=%d memo %s: %d hits, %d live results over %d runs; want %d and %d",
						tc.name, workers, pass, hits.Load(), live, runs, wantHits, wantLive)
				}
			}
		}
	}
}
