package main

// The benchmark's contract in one place: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics.
// BENCHMARK.json at the repo root is this table rendered by -print-spec
// (spec_test.go fails when the two drift apart), and every run checks
// that it prints exactly the metrics named here.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics carry none.
	Bound float64 `json:"bound,omitempty"`
}

const (
	wlHotInproc   = "serve-hot-inproc"
	wlHotTCP      = "serve-hot-tcp"
	wlChurnInproc = "serve-churn-inproc"
	wlBatchInproc = "serve-batch-inproc"
	wlSweep       = "sweep-figures"
)

// runSeconds is the measurement window the driver passes as --seconds.
const runSeconds = 10

// openLoopRate is the fixed offered load of the traced run's open-loop
// probe, in requests per second — ISSUE.md's figure: a site scheduler
// placing a burst of jobs, under a tenth of the ~28k req/s two
// closed-loop loopback connections carry on the 2-core sizing machine,
// so the backlog must not grow.
const openLoopRate = 2500

var workloads = []workloadSpec{
	{wlHotInproc, "closed loop, 2 clients, in-process, predict=8,select=2 over ~2k keys inside every cache: middleware, JSON, cache hit, tracing and metrics do the work; where serve-plane savings must show"},
	{wlHotTCP, "the same op stream over host loopback TCP, closed loop, 2 keep-alive connections: a remote scheduler waiting for each reply; transport is most of the exchange, so handler-only changes move it least"},
	{wlChurnInproc, "closed loop, 2 clients, in-process, predict=5,select=3,observe=1,runs=1 over ~700k keys with drift-driven recalibrations: cache miss/fill/evict, rank recompute, store ingest and predictor rebuild"},
	{wlBatchInproc, "closed loop, 2 clients, in-process, alternating /predict/batch and /select/batch of 64 hot items: per-request middleware amortised 64x, workpool fan-out and the per-item path dominate"},
	{wlSweep, "no HTTP: NewHarness + RunAll (Figures 2-13) on a cold memo at default parallelism, repeated: bench, middleware and simgrid do all the work; carries the prediction-accuracy oracle"},
}

// The bounds are set from the sizing machine's run-to-run behaviour
// (README, "Sizing"): a shared host whose speed moves the median of ten
// runs by 5-10% from one hour to the next, on every workload alike.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.15},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

var perLayer = []metricSpec{
	{Name: "transport.rtt_self_p50_us", Unit: "us", Better: "lower"},
	{Name: "transport.conn_reuse_share", Unit: "ratio", Better: "higher"},
	{Name: "transport.open_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.open_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.late_send_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.backlog_max", Unit: "count", Better: "lower"},

	{Name: "fgservice.handler_predict_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.handler_select_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.handler_predict_notrace_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.handler_select_notrace_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.handler_predict_nocache_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.handler_select_nocache_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.json_decode_predict_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.json_encode_predict_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.json_decode_select_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.json_encode_select_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.glue_predict_self_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.glue_select_self_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.allocs_per_predict", Unit: "count", Better: "lower"},
	{Name: "fgservice.allocs_per_select", Unit: "count", Better: "lower"},
	{Name: "fgservice.bytes_per_predict", Unit: "B", Better: "lower"},
	{Name: "fgservice.bytes_per_select", Unit: "B", Better: "lower"},
	{Name: "fgservice.batch64_predict_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.batch64_select_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.seq64_predict_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.seq64_select_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.predict_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.select_p50_us", Unit: "us", Better: "lower"},
	{Name: "fgservice.throttled_total", Unit: "count", Better: "lower"},
	{Name: "fgservice.errors_total", Unit: "count", Better: "lower"},

	{Name: "servecache.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "servecache.get_miss_fill_ns", Unit: "ns", Better: "lower"},
	{Name: "servecache.hit_share_predict", Unit: "ratio", Better: "higher"},
	{Name: "servecache.hit_share_select", Unit: "ratio", Better: "higher"},
	{Name: "servecache.evictions", Unit: "count", Better: "lower"},
	{Name: "servecache.invalidations", Unit: "count", Better: "lower"},
	{Name: "servecache.coalesced", Unit: "count", Better: "higher"},

	{Name: "core.predict_ns", Unit: "ns", Better: "lower"},
	{Name: "core.predict_allocs", Unit: "count", Better: "lower"},
	{Name: "core.new_predictor_ns", Unit: "ns", Better: "lower"},

	{Name: "grid.rank_steady_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.rank_one_bw_changed_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.rank_predictor_changed_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.plan_from_ranked_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.engine_reused_share", Unit: "ratio", Better: "higher"},
	{Name: "grid.engine_rebuilds", Unit: "count", Better: "lower"},
	{Name: "grid.bwest_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "grid.bwest_estimate_ns", Unit: "ns", Better: "lower"},

	{Name: "profile.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.source_predictor_ns", Unit: "ns", Better: "lower"},
	{Name: "profile.recalibrations", Unit: "count", Better: "lower"},
	{Name: "profile.store_version_moves", Unit: "count", Better: "lower"},

	{Name: "workpool.run64_noop_ns", Unit: "ns", Better: "lower"},
	{Name: "workpool.run64_limit1_ns", Unit: "ns", Better: "lower"},

	{Name: "reqtrace.trace_request_ns", Unit: "ns", Better: "lower"},
	{Name: "reqtrace.untraced_child_ns", Unit: "ns", Better: "lower"},
	{Name: "reqtrace.overhead_predict_us", Unit: "us", Better: "lower"},
	{Name: "reqtrace.handler_span_p50_us", Unit: "us", Better: "lower"},
	{Name: "reqtrace.handler_span_ratio", Unit: "ratio", Better: "higher"},

	{Name: "metrics.request_instruments_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.scrape_ms", Unit: "ms", Better: "lower"},

	{Name: "bench.run_all_s", Unit: "s", Better: "lower"},
	{Name: "bench.run_all_serial_s", Unit: "s", Better: "lower"},
	{Name: "bench.parallel_speedup", Unit: "ratio", Better: "higher"},
	{Name: "bench.sims_per_s", Unit: "1/s", Better: "higher"},
	{Name: "bench.sim_runs_started", Unit: "count", Better: "lower"},
	{Name: "bench.sim_memo_hits", Unit: "count", Better: "higher"},
	{Name: "bench.memo_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.simulate_memo_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "bench.slowest_figure_s", Unit: "s", Better: "lower"},
	{Name: "bench.pred_error_max_pct", Unit: "%", Better: "lower"},
	{Name: "bench.pred_error_mean_pct", Unit: "%", Better: "lower"},

	{Name: "middleware.simulate_base_ms", Unit: "ms", Better: "lower"},
	{Name: "middleware.simulate_8x16_ms", Unit: "ms", Better: "lower"},
	{Name: "middleware.events_per_sim", Unit: "count", Better: "lower"},
	{Name: "middleware.virtual_s_per_host_ms", Unit: "ratio", Better: "higher"},

	{Name: "simgrid.event_ns", Unit: "ns", Better: "lower"},
	{Name: "simgrid.spawn_ns", Unit: "ns", Better: "lower"},

	{Name: "process.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "process.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "process.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "process.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "process.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "process.latency_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "process.trace_overhead_share", Unit: "ratio", Better: "lower"},
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func benchmarkSpec() benchmarkJSON {
	return benchmarkJSON{
		Command:    []string{"sh", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}
