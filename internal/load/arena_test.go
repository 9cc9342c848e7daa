package load

import (
	"reflect"
	"testing"

	"mptcplab/internal/sim"
	"mptcplab/internal/units"
	"mptcplab/internal/world"
)

// TestArenaReuseDeterminism is the fleet half of the arena-reuse
// contract: RunIn on a dirtied arena must reproduce Run's result
// exactly — same streaming stats, same event count — with no state
// leaking through the warm simulator/network pools.
func TestArenaReuseDeterminism(t *testing.T) {
	cfg := smokeConfig()
	other := Config{
		Clients:    8,
		Sessions:   6,
		Duration:   6 * sim.Second,
		Drain:      10 * sim.Second,
		Transports: TransportMix{MPTCP: 1},
		Seed:       99,
	}

	fresh := Run(cfg)

	a := world.New()
	RunIn(a, other) // dirty the arena with an unrelated workload
	reused := RunIn(a, cfg)
	if !reflect.DeepEqual(fresh, reused) {
		t.Errorf("reused arena diverged from fresh run\nfresh:  %+v\nreused: %+v", fresh, reused)
	}

	again := RunIn(a, cfg) // back-to-back reuse of the same arena
	if !reflect.DeepEqual(fresh, again) {
		t.Errorf("second reuse diverged from fresh run")
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
