package main

// The benchmark's contract: workloads, end-to-end metrics with their
// bounds, and per-layer metrics. BENCHMARK.json at the root of the
// repository states the same thing for the driver; `-check` fails when the
// two disagree.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	ingestDistinct = "ingest-distinct"
	ingestRepeat   = "ingest-repeat"
	serveMixed     = "serve-mixed"
	batchUpdate    = "batch-update"
)

var workloadDefs = []workloadDef{
	{ingestDistinct, "every statement is new: parse, render, signature, unique-insert and evict-lightest do the work, core does none"},
	{ingestRepeat, "Zipf draws from 200 statements: the duplicate-compression path; a parse cache moves this, a faster eviction does not"},
	{serveMixed, "retunes with concurrent ingest and reads: warm-started core search does the work, reads and ingest contend with it"},
	{batchUpdate, "cold sessions through the tuner facade with 35% updates: the paper's setting; HTTP, service, obs and sqlx do no work"},
}

// Every workload reports every end-to-end metric (the driver's contract), so
// the metrics are named by role and each workload fills every role with a
// measurement of its own:
//
//	            op (the primary operation)         side (the second operation)
//	ingest-*    one POST /ingest batch of 100      one sweep of GET /workload, /metrics
//	                                               (Prometheus), /sessions and /drift over the
//	                                               window, after every block of batches
//	serve-mixed one POST /retune                   the open-loop requests sent beside it:
//	                                               ingest batches of 50 and the five reads,
//	                                               pooled, timed from when each was due
//	batch-update one cold session (tuner.Tune)     sizing its budget: NewSession,
//	                                               OptimalConfiguration and two Evaluates
//	                                               (the paper's section 2 step)
//
// stmts_per_s is statements per second of the primary operation's time and
// cpu_ms_per_kstmt the CPU spent per 1000 of them. Timings, rates and CPU are
// scaled to the reference host speed (hostProbe). README.md maps the roles to
// the operation-specific names (ingest_batch_p50_ms, retune_p50_ms,
// read_p95_ms, tune_wall_s, ...), which every end-to-end run prints and the
// traced run reports under "client.".
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"op_tail_ms", "ms", "lower", 0.25},
	{"side_p50_ms", "ms", "lower", 0.25},
	{"side_tail_ms", "ms", "lower", 0.25},
	{"stmts_per_s", "stmt/s", "higher", 0.25},
	{"cpu_ms_per_kstmt", "ms/kstmt", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// tailPercentiles are the percentiles op_tail_ms and side_tail_ms report.
// They are fixed per workload, not chosen from the sample count, so that two
// runs of one workload always report the same statistic; each leaves ten
// samples beyond it in what a run collects. On the ingest workloads the op
// percentile is taken within a block of batches.
var tailPercentiles = map[string]struct{ op, side float64 }{
	ingestDistinct: {90, 90},
	ingestRepeat:   {90, 90},
	serveMixed:     {90, 95},
	batchUpdate:    {90, 90},
}

var perLayer = []metricDef{
	// what a client sees, by operation (measured against the daemon, or
	// around the facade on batch-update)
	{Name: "client.ingest_stmts_per_s", Unit: "stmt/s", Better: "higher"},
	{Name: "client.ingest_batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ingest_batch_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.retune_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.retune_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.read_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "client.tune_wall_s", Unit: "s", Better: "lower"},
	{Name: "client.cost_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.failed_ops_pct", Unit: "%", Better: "lower"},

	{Name: "sqlx.parse_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "sqlx.render_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "sqlx.alloc_b_per_stmt", Unit: "B", Better: "lower"},
	{Name: "sqlx.parse_errors", Unit: "count", Better: "lower"},

	{Name: "workloads.signature_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "workloads.observe_self_ns_per_stmt", Unit: "ns", Better: "lower"},
	{Name: "workloads.dup_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "workloads.evicted_unique", Unit: "count", Better: "lower"},
	{Name: "workloads.evicted_oldest", Unit: "count", Better: "lower"},
	{Name: "workloads.sketch_evictions", Unit: "count", Better: "lower"},
	{Name: "workloads.window_unique", Unit: "count", Better: "lower"},
	{Name: "workloads.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "workloads.stats_us", Unit: "us", Better: "lower"},

	{Name: "optimizer.bind_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "optimizer.optimize_us_per_call", Unit: "us", Better: "lower"},
	{Name: "optimizer.alloc_b_per_call", Unit: "B", Better: "lower"},
	{Name: "optimizer.calls", Unit: "count", Better: "lower"},

	{Name: "core.newtuner_ms", Unit: "ms", Better: "lower"},
	{Name: "core.optimal_config_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rank_ms", Unit: "ms", Better: "lower"},
	{Name: "core.evaluate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.enumerate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.skyline_ms", Unit: "ms", Better: "lower"},
	{Name: "core.warm_start_ms", Unit: "ms", Better: "lower"},
	{Name: "core.explain_ms", Unit: "ms", Better: "lower"},
	{Name: "core.iterations", Unit: "count", Better: "lower"},
	{Name: "core.plans_reused_pct", Unit: "%", Better: "higher"},
	{Name: "core.cache_hit_pct", Unit: "%", Better: "higher"},
	{Name: "core.tune_alloc_mb", Unit: "MB", Better: "lower"},

	{Name: "service.ingest_self_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "service.retune_self_ms", Unit: "ms", Better: "lower"},
	{Name: "service.workload_report_ms", Unit: "ms", Better: "lower"},
	{Name: "service.metrics_snapshot_us", Unit: "us", Better: "lower"},
	{Name: "service.drift_check_ms", Unit: "ms", Better: "lower"},

	{Name: "http.ingest_codec_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "http.ingest_wire_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "http.read_recommendation_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.read_workload_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.read_metrics_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.read_sessions_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.read_drift_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "http.resp_bytes_recommendation", Unit: "B", Better: "lower"},
	{Name: "http.resp_bytes_workload", Unit: "B", Better: "lower"},
	{Name: "http.resp_bytes_metrics", Unit: "B", Better: "lower"},
	{Name: "http.resp_bytes_sessions", Unit: "B", Better: "lower"},
	{Name: "http.resp_bytes_drift", Unit: "B", Better: "lower"},
	{Name: "http.ingest_batch_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "http.ingest_batch_max_ms", Unit: "ms", Better: "lower"},
	{Name: "http.open_loop_lag_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "http.status_4xx", Unit: "count", Better: "lower"},
	{Name: "http.status_5xx", Unit: "count", Better: "lower"},

	{Name: "obs.recorder_record_us", Unit: "us", Better: "lower"},
	{Name: "obs.prom_render_us", Unit: "us", Better: "lower"},
	{Name: "obs.prom_bytes", Unit: "B", Better: "lower"},

	{Name: "tunerd.cpu_s", Unit: "s", Better: "lower"},
	{Name: "tunerd.rss_end_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.generator_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "bench.host_factor", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.self_time_coverage_pct", Unit: "%", Better: "higher"},
}
