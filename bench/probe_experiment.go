package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"mptcplab/internal/experiment"
	"mptcplab/internal/pathmodel"
	"mptcplab/internal/units"
)

// benchTestbed is the testbed of BenchmarkSingleDownload4MB and
// BenchmarkTCPSingle4MB in bench_test.go, so experiment.run_4mb_*
// continues the curve the committed BENCH_*.json files started.
func benchTestbed(seed int64) experiment.TestbedConfig {
	return experiment.TestbedConfig{
		WiFi: pathmodel.ComcastHome(), Cell: pathmodel.ATT(),
		SampleProfiles: true, WarmRadio: true, Seed: seed,
	}
}

// probeTestbed times the per-run fixed costs of the experiment layer —
// building the Fig 1 world and resetting it in place — and one whole
// 4 MB download, world build included, over MPTCP and over TCP.
func probeTestbed(*probeEnv) (map[string]float64, error) {
	out := map[string]float64{}
	out["experiment.build_us"] = nsPerOp(500, func(i int) {
		experiment.NewTestbed(benchTestbed(int64(i)))
	}) / 1e3
	tb := experiment.NewTestbed(benchTestbed(0))
	out["experiment.reset_us"] = nsPerOp(500, func(i int) {
		tb.Reset(benchTestbed(int64(i)))
	}) / 1e3

	var failed error
	run4MB := func(tr experiment.Transport) float64 {
		return nsPerOp(20, func(i int) {
			res := experiment.NewTestbed(benchTestbed(int64(i))).Run(experiment.RunConfig{Transport: tr, Size: 4 * units.MB})
			if !res.Completed {
				failed = fmt.Errorf("experiment probe: 4 MB %v download did not complete", tr)
			}
		}) / 1e6
	}
	out["experiment.run_4mb_mp2_ms"] = run4MB(experiment.MP2)
	out["experiment.run_4mb_tcp_ms"] = run4MB(experiment.SPWiFi)
	return out, failed
}

// probeCampaign runs the Fig 4 matrix at 32 repetitions (1,024 runs,
// 8 KB-4 MB) on one worker and times every run through
// CampaignOpts.Intercept, then the two exports of the finished matrix.
func probeCampaign(env *probeEnv) (map[string]float64, error) {
	// One worker: Intercept is only ever called from this goroutine.
	var millis []float64
	opts := experiment.CampaignOpts{
		Reps: 32, Seed: deriveSeed(env.seed, "probe.campaign", 0), Workers: 1, SampleProfiles: true,
		Intercept: func(_ experiment.CampaignJob, run func() experiment.RunResult) experiment.RunResult {
			t0 := time.Now()
			res := run()
			millis = append(millis, float64(time.Since(t0).Nanoseconds())/1e6)
			return res
		},
	}
	var m *experiment.Matrix
	cost := measure(func() { m = experiment.SmallFlows(opts) })
	if m.FailedRuns > 0 {
		return nil, fmt.Errorf("campaign probe: %d failed runs, first: %s", m.FailedRuns, m.FirstFailure)
	}
	p99, ok := percentile(millis, 0.99)
	if !ok {
		return nil, fmt.Errorf("campaign probe: %d runs are too few for a 99th percentile", len(millis))
	}
	runs := float64(len(millis))
	out := map[string]float64{
		"experiment.run_ms_p50":     median(millis),
		"experiment.run_ms_p99":     p99,
		"experiment.runs_per_s":     runs / cost.seconds,
		"experiment.allocs_per_run": cost.mallocs / runs,
	}

	var werr error
	out["experiment.export_ms"] = nsPerOp(20, func(int) {
		var csv, js bytes.Buffer
		if err := experiment.WriteCSV(&csv, m); err != nil {
			werr = err
		}
		if err := experiment.WriteJSON(&js, m); err != nil {
			werr = err
		}
	}) / 1e6
	return out, werr
}

// runResults returns the two result shapes the daemon stores: a small
// flow's (1 MB over two paths, the mean Fig 4 result) and a large
// flow's (16 MB, the mean Fig 9 result, most of it per-packet RTT and
// reordering samples).
func runResults() (small, large experiment.RunResult, err error) {
	run := func(size units.ByteCount) experiment.RunResult {
		return experiment.NewTestbed(benchTestbed(1)).Run(experiment.RunConfig{Transport: experiment.MP2, Size: size})
	}
	small, large = run(1*units.MB), run(16*units.MB)
	if !small.Completed || !large.Completed {
		err = fmt.Errorf("result probe: reference downloads did not complete")
	}
	return small, large, err
}

// probeResultCodec times the JSON codec on a large RunResult — the
// value the daemon encodes on every cold row and decodes on every warm
// one.
func probeResultCodec(*probeEnv) (map[string]float64, error) {
	_, large, err := runResults()
	if err != nil {
		return nil, err
	}
	enc, err := json.Marshal(large)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{"experiment.result_json_kb": float64(len(enc)) / 1024}
	out["experiment.result_encode_us"] = nsPerOp(10, func(int) {
		_, err = json.Marshal(large)
	}) / 1e3
	if err != nil {
		return nil, err
	}
	out["experiment.result_decode_us"] = nsPerOp(10, func(int) {
		var res experiment.RunResult
		err = json.Unmarshal(enc, &res)
	}) / 1e3
	return out, err
}
