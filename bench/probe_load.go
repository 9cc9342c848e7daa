package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/load"
	"mptcplab/internal/netem"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/sim"
	"mptcplab/internal/sweep"
	"mptcplab/internal/units"
)

// fleetConfig is the probes' fleet run: the same 500 Poisson-
// conditioned arrivals of the small-flow mix whatever the fleet size,
// so a curve over clients isolates what the extra hosts cost.
func fleetConfig(env *probeEnv, clients int) load.Config {
	return load.Config{
		Clients:    clients,
		Flows:      500,
		Duration:   30 * sim.Second,
		Transports: load.TransportMix{WiFi: 0.3, Cell: 0.2, MPTCP: 0.5},
		Seed:       deriveSeed(env.seed, "probe.fleet", 0),
	}
}

func fleetFailed(what string, res *load.Result) error {
	switch {
	case res.Failed:
		return fmt.Errorf("%s: run failed: %s", what, res.FailReason)
	case res.Violations > 0:
		return fmt.Errorf("%s: %d violations, first: %s", what, res.Violations, res.FirstViolation)
	}
	return nil
}

// probeLoadClients is the fleet-size axis: one load.Run (world build
// included) at 10, 100, 1,000 and 5,000 clients, and the topology
// build alone at 5,000.
func probeLoadClients(env *probeEnv) (map[string]float64, error) {
	out := map[string]float64{}
	for _, clients := range []int{10, 100, 1000, 5000} {
		var res *load.Result
		m := measure(func() { res = load.Run(fleetConfig(env, clients)) })
		if err := fleetFailed("load probe", res); err != nil {
			return nil, err
		}
		out[fmt.Sprintf("load.run_ms_clients%d", clients)] = m.seconds * 1e3
		if clients == 100 {
			out["load.flows_per_s"] = float64(res.Started) / m.seconds
			out["load.allocs_per_flow"] = m.mallocs / float64(res.Started)
		}
	}
	t0 := time.Now()
	s := sim.New()
	load.NewTopology(netem.NewNetwork(s), sim.NewRNG(1), pathmodel.CoffeeShop(), pathmodel.ATT(), 5000)
	out["load.topology_ms_clients5000"] = time.Since(t0).Seconds() * 1e3
	return out, nil
}

// probeLoadArena is the arena ablation: the same run on a warm reused
// arena over a fresh world, and the exports of a small sweep.
func probeLoadArena(env *probeEnv) (map[string]float64, error) {
	cfg := fleetConfig(env, 1000)
	fresh := measure(func() { load.Run(cfg) })
	arena := load.NewArena()
	load.RunIn(arena, cfg) // warm its pools
	reused := measure(func() { load.RunIn(arena, cfg) })
	out := map[string]float64{"load.arena_reuse_ratio": reused.seconds / fresh.seconds}

	base := fleetConfig(env, 20)
	base.Flows, base.Duration, base.Drain = 0, 5*sim.Second, 5*sim.Second
	sw := load.RunSweep(load.SweepOpts{Base: base, Rates: []float64{2, 4}, Clients: []int{10, 20}, Reps: 2, Seed: cfg.Seed, Workers: 1})
	var werr error
	out["load.export_ms"] = nsPerOp(50, func(int) {
		var csv, js bytes.Buffer
		if err := sw.WriteCSV(&csv, base); err != nil {
			werr = err
		}
		if err := sw.WriteJSON(&js, base); err != nil {
			werr = err
		}
	}) / 1e6
	return out, werr
}

// probeCheck is what arming the invariant checker costs: the same
// fleet run with SelfCheck on over off. It moves no end-to-end metric
// (the checker is off in timed passes) and doubles as an assertion
// that the run has no violations.
func probeCheck(env *probeEnv) (map[string]float64, error) {
	cfg := fleetConfig(env, 100)
	off := measure(func() { load.Run(cfg) })
	cfg.SelfCheck = true
	var res *load.Result
	on := measure(func() { res = load.Run(cfg) })
	if err := fleetFailed("check probe", res); err != nil {
		return nil, err
	}
	return map[string]float64{"check.overhead_ratio": on.seconds / off.seconds}, nil
}

// probeSweepEngine times the generic engine on jobs that do nothing —
// claim, contain, absorb — at one worker and at nproc, plus seed
// derivation and the content-address hash of one campaign job.
func probeSweepEngine(*probeEnv) (map[string]float64, error) {
	const jobs = 100_000
	out := map[string]float64{}
	engine := func(workers int) float64 {
		var absorbed int
		t0 := time.Now()
		sweep.Run(sweep.Opts{Seed: 1, Salt: 0x5eed, Workers: workers}, jobs,
			func(_ *struct{}, job int) int { return job },
			func(int, error) int { return -1 },
			func(_ int, res int) { absorbed++ })
		return float64(time.Since(t0).Nanoseconds()) / jobs
	}
	out["sweep.job_ns_w1"] = engine(1)
	out["sweep.job_ns_wn"] = engine(max(runtime.NumCPU(), 2))

	var sink int64
	out["sweep.seed_ns"] = nsPerOp(2_000_000, func(i int) {
		sink += sweep.Seed(42, i&1023, i&7, i&31)
	})

	job := experiment.CampaignJob{Experiment: "fig4", Row: "MP-2 (coupled)", Size: 512 * units.KB, Rep: 3, Sample: true, Seed: 99}
	var kerr error
	out["sweep.key_us"] = nsPerOp(20_000, func(int) {
		_, kerr = sweep.Key(struct {
			Kind string                 `json:"kind"`
			Job  experiment.CampaignJob `json:"job"`
		}{"experiment", job}, job.Seed)
	}) / 1e3
	if sink == 0 {
		kerr = fmt.Errorf("sweep probe: seeds summed to zero")
	}
	return out, kerr
}

// probeSweepStore times the two result backends with the values the
// daemon really stores (a small flow's result, ~12 KB of JSON, and a
// large flow's, ~170 KB): Put and GetRef on the memory cache, Put and
// GetRef on the disk store, and opening a store over what was written.
func probeSweepStore(env *probeEnv) (map[string]float64, error) {
	small, large, err := runResults()
	if err != nil {
		return nil, err
	}
	smallJSON, err := json.Marshal(small)
	if err != nil {
		return nil, err
	}
	largeJSON, err := json.Marshal(large)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x:%d", i, i)
	}

	cache := sweep.NewCache()
	out["sweep.cache_put_ns"] = nsPerOp(len(keys), func(i int) { cache.Put(keys[i], smallJSON) })
	misses := 0
	out["sweep.cache_getref_ns"] = nsPerOp(1_000_000, func(i int) {
		if _, ok := cache.GetRef(keys[i&4095]); !ok {
			misses++
		}
	})

	dir, err := os.MkdirTemp(env.tmp, "store-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := sweep.OpenStore(dir, sweep.StoreOpts{})
	if err != nil {
		return nil, err
	}
	const smallPuts, largePuts = 1024, 192
	out["sweep.store_put_us_12k"] = nsPerOp(smallPuts, func(i int) { st.Put(keys[i], smallJSON) }) / 1e3
	out["sweep.store_put_us_170k"] = nsPerOp(largePuts, func(i int) { st.Put(keys[smallPuts+i], largeJSON) }) / 1e3
	out["sweep.store_getref_ns"] = nsPerOp(1_000_000, func(i int) {
		if _, ok := st.GetRef(keys[i%(smallPuts+largePuts)]); !ok {
			misses++
		}
	})
	if h := st.Health(); h.Degraded {
		return nil, fmt.Errorf("store probe: store degraded: %s", h.DegradedReason)
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	payload := float64(smallPuts*len(smallJSON) + largePuts*len(largeJSON))
	var disk int64
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	for _, name := range segs {
		info, err := os.Stat(name)
		if err != nil {
			return nil, err
		}
		disk += info.Size()
	}
	out["sweep.store_disk_ratio"] = float64(disk) / payload

	t0 := time.Now()
	reopened, err := sweep.OpenStore(dir, sweep.StoreOpts{})
	if err != nil {
		return nil, err
	}
	out["sweep.store_open_mb_per_s"] = float64(disk) / 1e6 / time.Since(t0).Seconds()
	if n, _, _ := reopened.Stats(); n != smallPuts+largePuts || misses > 0 {
		return nil, fmt.Errorf("store probe: reopened store holds %d of %d entries, %d lookups missed", n, smallPuts+largePuts, misses)
	}
	return out, reopened.Close()
}
