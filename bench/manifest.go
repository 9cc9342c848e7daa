package main

// The registry below is the Go side of BENCHMARK.json: every workload
// and metric name the harness can emit, with unit, direction and (for
// end-to-end metrics) the regression bound. manifest_test.go holds the
// two in lockstep, so a name printed by `go run ./bench` always has a
// manifest entry and the reverse.

const (
	// defaultSeed is the workload seed used when -seed is not given.
	// Every campaign seed a workload hands to the program under test
	// is derived from it (see deriveSeed).
	defaultSeed = 20130923
	// runSeconds is how long one run's timed passes measure; it equals
	// BENCHMARK.json's run_seconds.
	runSeconds = 14
	// minPasses is the fewest timed passes a run reports a median
	// over, however slow the host is.
	minPasses = 5
	// setupRuns is how many times a run sets its workload up, each in
	// a fresh child process; setup_s is the median.
	setupRuns = 5
)

type direction string

const (
	lower  direction = "lower"
	higher direction = "higher"
)

type metricDef struct {
	Name   string
	Unit   string
	Better direction
	// Bound is the share of the parent's median by which an
	// end-to-end metric may get worse; zero for per-layer metrics.
	Bound float64
	// Exact marks a count that is a pure function of the seed and
	// must repeat bit for bit between two runs of the same code.
	Exact bool
}

type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"bulk", "few long MPTCP flows with megabytes in flight through deep drop-tail queues (Fig 11-13): CPU sits in the tcp+mptcp+sim inner loop, none in world build, sweep, store or HTTP"},
	{"campaign", "hundreds of 8KB-16MB runs on nproc workers (Fig 2-8): per-run fixed costs, allocation, GC and cross-worker contention dominate; steady-state tcp cost does not"},
	{"fleet", "one world with up to 5000 hosts and thousands of short connections, offered at about twice and at sixteen times what AP and sector carry: heap depth, timers, host demux, connection churn, arena reuse"},
	{"serve", "real mptcpd over loopback, cold then warm then reopened: the only workload crossing sweep.Key, Store, journal, JSON codec and HTTP"},
}

// endToEndDefs are the metrics a user of the system sees; every
// workload reports all of them with tracing off.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: lower, Bound: 0.25},
}

// cpuSharePkgs are the layers a traced pass's CPU profile is folded
// into; every sample lands in exactly one, so the shares sum to 1.
// "runtime" collects the Go runtime, GC and memmove; "other" is
// everything else (harness, encoding/json, remaining repo packages).
var cpuSharePkgs = []string{
	"sim", "netem", "seg", "tcp", "mptcp", "cc", "pathmodel", "web",
	"stats", "experiment", "load", "sweep", "runtime", "other",
}

// layerDefs are the per-layer metrics, emitted by a traced run.
var layerDefs = buildLayerDefs()

func buildLayerDefs() []metricDef {
	m := func(name, unit string, better direction) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better}
	}
	exact := func(name, unit string, better direction) metricDef {
		return metricDef{Name: name, Unit: unit, Better: better, Exact: true}
	}
	defs := []metricDef{
		m("sim.event_ns", "ns", lower),
		m("sim.event_ns_depth4k", "ns", lower),
		m("sim.timer_reset_ns", "ns", lower),
		m("sim.rng_seed_us", "us", lower),
		m("sim.reset_us", "us", lower),
		exact("sim.events", "count", lower),
		m("sim.events_per_s", "1/s", higher),

		m("netem.pkt_ns_1hop", "ns", lower),
		m("netem.pkt_ns_3hop", "ns", lower),
		m("netem.pkt_ns_impaired", "ns", lower),
		exact("netem.drop_share", "share", lower),

		m("seg.pool_getput_ns", "ns", lower),
		m("seg.encode_decode_ns", "ns", lower),

		m("tcp.clean_mbytes_per_s", "MB/s", higher),
		m("tcp.bloat_mbytes_per_s", "MB/s", higher),
		m("tcp.lossy_mbytes_per_s", "MB/s", higher),
		m("tcp.conn_us", "us", lower),
		m("tcp.allocs_per_conn", "count", lower),
		m("tcp.allocs_per_mbyte", "count", lower),
		exact("tcp.events_per_mbyte", "count", lower),
		exact("tcp.retrans_share", "share", lower),

		m("mptcp.paths1_mbytes_per_s", "MB/s", higher),
		m("mptcp.paths2_mbytes_per_s", "MB/s", higher),
		m("mptcp.paths4_mbytes_per_s", "MB/s", higher),
		m("mptcp.paths8_mbytes_per_s", "MB/s", higher),
		m("mptcp.asym_mbytes_per_s", "MB/s", higher),
		m("mptcp.conn_us", "us", lower),
		m("mptcp.reorder_inorder_ns", "ns", lower),
		m("mptcp.reorder_interleaved_ns", "ns", lower),
		m("mptcp.allocs_per_mbyte", "count", lower),

		m("cc.ack_ns_paths2", "ns", lower),
		m("cc.ack_ns_paths8", "ns", lower),

		m("pathmodel.links_us", "us", lower),

		m("experiment.build_us", "us", lower),
		m("experiment.reset_us", "us", lower),
		m("experiment.run_4mb_mp2_ms", "ms", lower),
		m("experiment.run_4mb_tcp_ms", "ms", lower),
		m("experiment.run_ms_p50", "ms", lower),
		m("experiment.run_ms_p99", "ms", lower),
		m("experiment.runs_per_s", "1/s", higher),
		m("experiment.allocs_per_run", "count", lower),
		m("experiment.export_ms", "ms", lower),
		exact("experiment.result_json_kb", "KB", lower),
		m("experiment.result_encode_us", "us", lower),
		m("experiment.result_decode_us", "us", lower),

		m("load.run_ms_clients10", "ms", lower),
		m("load.run_ms_clients100", "ms", lower),
		m("load.run_ms_clients1000", "ms", lower),
		m("load.run_ms_clients5000", "ms", lower),
		m("load.topology_ms_clients5000", "ms", lower),
		m("load.arena_reuse_ratio", "ratio", lower),
		m("load.flows_per_s", "1/s", higher),
		m("load.allocs_per_flow", "count", lower),
		m("load.export_ms", "ms", lower),
		m("check.overhead_ratio", "ratio", lower),

		m("sweep.job_ns_w1", "ns", lower),
		m("sweep.job_ns_wn", "ns", lower),
		m("sweep.seed_ns", "ns", lower),
		m("sweep.key_us", "us", lower),
		m("sweep.cache_put_ns", "ns", lower),
		m("sweep.cache_getref_ns", "ns", lower),
		m("sweep.store_put_us_12k", "us", lower),
		m("sweep.store_put_us_170k", "us", lower),
		m("sweep.store_getref_ns", "ns", lower),
		m("sweep.store_open_mb_per_s", "MB/s", higher),
		exact("sweep.store_disk_ratio", "ratio", lower),

		m("mptcpd.boot_ms", "ms", lower),
		m("mptcpd.submit_ms_p50", "ms", lower),
		m("mptcpd.queue_wait_ms_p50", "ms", lower),
		m("mptcpd.status_us_p50", "us", lower),
		m("mptcpd.status_us_p99", "us", lower),
		m("mptcpd.cold_row_ms", "ms", lower),
		m("mptcpd.warm_row_us", "us", lower),
		m("mptcpd.export_fetch_ms", "ms", lower),
		m("mptcpd.rows_stream_ms", "ms", lower),
		m("mptcpd.replay_cold_ms", "ms", lower),
		m("mptcpd.replay_warm_ms", "ms", lower),
		m("mptcpd.cold_overhead_ratio", "ratio", lower),
		exact("mptcpd.warm_hit_share", "share", higher),
		exact("mptcpd.http_errors", "count", lower),

		// The serve workload's three phases and its disk footprint.
		// They exist on one workload only, so they cannot be
		// end-to-end metrics (every workload reports all of those);
		// wall_s on serve is their sum.
		m("serve.cold_export_s", "s", lower),
		m("serve.warm_export_s", "s", lower),
		m("serve.reopen_s", "s", lower),
		exact("serve.store_disk_mb", "MB", lower),

		m("runtime.gc_cycles", "count", lower),
		m("runtime.mallocs_per_event", "count", lower),
		m("runtime.heap_peak_mb", "MB", lower),

		m("bench.trace_overhead_ratio", "ratio", lower),
		// Peak resident set of the process under test. Demoted from the
		// end-to-end list: on fleet it swings by a third from seed to
		// seed with where the collector's cycles happen to fall.
		m("bench.peak_rss_mb", "MB", lower),
	}
	for _, pkg := range cpuSharePkgs {
		defs = append(defs, m(pkg+".cpu_share", "share", lower))
	}
	return defs
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
