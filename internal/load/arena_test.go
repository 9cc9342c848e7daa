package load

import (
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// TestArenaReuseDeterminism is the fleet half of the arena-reuse
// contract: RunIn on a dirtied arena must reproduce Run's result
// exactly — same streaming stats, same event count, same export bytes —
// with no state leaking through the warm simulator/network pools, or
// through the routes that endpoints abandoned in flight still hold.
func TestArenaReuseDeterminism(t *testing.T) {
	cfg := smokeConfig()
	dirty := []Config{
		{ // more hosts than cfg, saturated: hundreds of flows bound when it ends
			Clients:    120,
			Rate:       60,
			Duration:   5 * sim.Second,
			Drain:      1 * sim.Second,
			Sizes:      WebMix(),
			Transports: TransportMix{WiFi: 0.3, Cell: 0.2, MPTCP: 0.5},
			Seed:       5,
		},
		{
			Clients:    8,
			Sessions:   6,
			Duration:   6 * sim.Second,
			Drain:      10 * sim.Second,
			Transports: TransportMix{MPTCP: 1},
			Seed:       99,
		},
	}
	export := func(res *Result) string {
		b, err := json.Marshal(newRow(SweepPoint{Rate: cfg.Rate, Clients: cfg.Clients}, 0, cfg, res))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	fresh := Run(cfg)
	want := export(fresh)

	a := world.New()
	for _, other := range dirty { // dirty the arena with unrelated workloads
		if res := RunIn(a, other); res.Incomplete == 0 && other.Rate > 0 {
			t.Fatalf("dirtying run left no flow in flight: %+v", res)
		}
		reused := RunIn(a, cfg)
		if !reflect.DeepEqual(fresh, reused) {
			t.Errorf("reused arena diverged from fresh run\nfresh:  %+v\nreused: %+v", fresh, reused)
		}
		if got := export(reused); got != want {
			t.Errorf("reused arena exports other bytes\nfresh:  %s\nreused: %s", want, got)
		}
	}

	again := RunIn(a, cfg) // back-to-back reuse of the same arena
	if !reflect.DeepEqual(fresh, again) || export(again) != want {
		t.Errorf("second reuse diverged from fresh run")
	}
}

// TestFleetBytesPerFlow gates what a connection costs in bytes. The
// object-count gates (TestDownloadAllocBudget, cmd/benchjson's
// ceilings) let a 4.9 KB RNG register per child stream — five or six
// per flow, each drawn from once or twice — hide for fourteen PRs.
func TestFleetBytesPerFlow(t *testing.T) {
	cfg := Config{
		Clients:    200,
		Rate:       20,
		Duration:   10 * sim.Second,
		Drain:      10 * sim.Second,
		Sizes:      WebMix(),
		Transports: TransportMix{WiFi: 0.3, Cell: 0.2, MPTCP: 0.5},
		Seed:       3,
	}
	a := world.New()
	RunIn(a, cfg) // warm the arena's pools: a sweep worker's steady state
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res := RunIn(a, cfg)
	runtime.ReadMemStats(&m1)
	if res.Started < 150 {
		t.Fatalf("only %d flows started", res.Started)
	}
	perFlow := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Started)
	t.Logf("%d flows, %.0f bytes allocated per flow", res.Started, perFlow)
	// 16,814 since child streams seed lazily (40,108 before), plus 25 %.
	const ceiling = 21000
	if perFlow > ceiling {
		t.Errorf("%.0f bytes allocated per flow, ceiling %d", perFlow, ceiling)
	}
}

// The reuse benchmarks measure what arena reuse buys a sweep worker.
// Run with -benchtime=1000x for the 1k-run sweep comparison quoted in
// EXPERIMENTS.md.
func arenaBenchCfg(i int) Config {
	return Config{
		Clients:    10,
		Flows:      30,
		Duration:   5 * sim.Second,
		Drain:      10 * sim.Second,
		Transports: TransportMix{WiFi: 0.3, MPTCP: 0.7},
		Background: Background{WiFiDown: 1 * units.Mbps},
		Seed:       int64(i),
	}
}

func BenchmarkFleetRunFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Run(arenaBenchCfg(i))
	}
}

func BenchmarkFleetRunReused(b *testing.B) {
	b.ReportAllocs()
	a := world.New()
	for i := 0; i < b.N; i++ {
		RunIn(a, arenaBenchCfg(i))
	}
}
