package main

import (
	"fmt"
	"net/url"
	"os"
	"time"
)

// probeServe runs the serve workload's job list twice — one pass with
// tracing off for the three phase timings and the disk footprint, one
// traced for the spans — and the same specs directly in process, whose
// cost is the base of mptcpd.cold_overhead_ratio.
func probeServe(env *probeEnv) (map[string]float64, error) {
	j, err := newServeJob(env.seed, env.jobEnv)
	if err != nil {
		return nil, err
	}
	defer j.close()

	plain, err := j.pass(nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, err := j.pass(tr)
	if err != nil {
		return nil, err
	}
	if plain.failed+traced.failed > 0 {
		return nil, fmt.Errorf("serve probe: %s%s", plain.firstFailure, traced.firstFailure)
	}
	t0 := time.Now()
	if _, err := j.directAll(); err != nil {
		return nil, err
	}
	direct := time.Since(t0).Seconds()

	ph := plain.phases
	out := map[string]float64{
		"serve.cold_export_s":        ph.coldS,
		"serve.warm_export_s":        ph.warmS,
		"serve.reopen_s":             ph.reopenS,
		"serve.store_disk_mb":        ph.storeDiskMB,
		"mptcpd.http_errors":         float64(plain.failed + traced.failed),
		"mptcpd.cold_overhead_ratio": ph.coldS / direct,
		"mptcpd.cold_row_ms":         ph.coldS / float64(ph.coldRows) * 1e3,
		"mptcpd.warm_row_us":         ph.warmS / float64(ph.warmRows) * 1e6,
		"mptcpd.warm_hit_share":      float64(ph.warmHits) / float64(ph.warmRows),
	}
	spans := tr.finish()
	for metric, spanName := range map[string]string{
		"mptcpd.boot_ms":           "mptcpd.boot",
		"mptcpd.submit_ms_p50":     "mptcpd.submit",
		"mptcpd.queue_wait_ms_p50": "mptcpd.queued",
		"mptcpd.export_fetch_ms":   "mptcpd.export_fetch",
		"mptcpd.rows_stream_ms":    "mptcpd.rows_stream",
	} {
		var ms []float64
		for _, s := range spans {
			if s.Name == spanName {
				ms = append(ms, float64(s.EndNS-s.StartNS)/1e6)
			}
		}
		if len(ms) == 0 {
			return nil, fmt.Errorf("serve probe: the traced pass recorded no %s span", spanName)
		}
		out[metric] = median(ms)
	}
	return out, nil
}

// probeDaemonSurface measures the parts of the HTTP surface a serve
// pass does not dwell on: 2,000 closed-loop status GETs on a finished
// campaign, and a replay-token lookup cold and then warm.
func probeDaemonSurface(env *probeEnv) (map[string]float64, error) {
	store, err := os.MkdirTemp(env.tmp, "surface-probe-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	d, err := startDaemon(env.mptcpd, store, hc)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	var out passOut
	c := &caller{hc: hc, base: d.url, out: &out}
	sub := c.submit(experimentSpec("fig8", 1, deriveSeed(env.seed, "probe.surface", 0)), nil, 0, "cold")

	const gets = 2000
	micros := make([]float64, gets)
	for i := range micros {
		t0 := time.Now()
		c.do("GET", "/v1/campaigns/"+sub.st.ID, "")
		micros[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	p99, ok := percentile(micros, 0.99)
	if !ok {
		return nil, fmt.Errorf("surface probe: %d samples are too few for a 99th percentile", gets)
	}

	token := fmt.Sprintf("clients=8,flows=12,dur=5s,seed=%d", deriveSeed(env.seed, "probe.surface", 1))
	replay := func() float64 {
		t0 := time.Now()
		c.do("GET", "/v1/replay?token="+url.QueryEscape(token), "")
		return time.Since(t0).Seconds() * 1e3
	}
	res := map[string]float64{
		"mptcpd.status_us_p50":  median(micros),
		"mptcpd.status_us_p99":  p99,
		"mptcpd.replay_cold_ms": replay(),
		"mptcpd.replay_warm_ms": replay(),
	}
	if out.failed > 0 {
		return nil, fmt.Errorf("surface probe: %s", out.firstFailure)
	}
	return res, nil
}
