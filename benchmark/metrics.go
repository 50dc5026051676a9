package main

// metricDef names one metric, its unit and which direction is better.
// The two lists below are the benchmark's contract; BENCHMARK.json at
// the repository root repeats them (bench_test.go holds the two equal).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the baseline
}

// endToEnd is measured with tracing off, as the median over a run's
// iterations, on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_kop", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.15},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.20},
}

// perLayer is reported by the traced run. A metric a workload's
// iterations never touch reads 0 there (the layer did no work); probe
// metrics are measured by fixed-count probes after the iterations and
// read the same on every workload.
var perLayer = []metricDef{
	// webgen
	{Name: "webgen.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "webgen.pages", Unit: "count", Better: "higher"},
	{Name: "webgen.allocs_per_page", Unit: "count", Better: "lower"},
	{Name: "webgen.archetype_ms", Unit: "ms", Better: "lower"},
	// corpus
	{Name: "corpus.col_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.col_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.col_bytes_per_page", Unit: "B", Better: "lower"},
	{Name: "corpus.col_decode_allocs_per_page", Unit: "count", Better: "lower"},
	{Name: "corpus.ndjson_encode_ms", Unit: "ms", Better: "lower"},
	{Name: "corpus.ndjson_decode_ms", Unit: "ms", Better: "lower"},
	// report
	{Name: "report.fold_ms", Unit: "ms", Better: "lower"},
	{Name: "report.tables_ms", Unit: "ms", Better: "lower"},
	{Name: "report.figures_ms", Unit: "ms", Better: "lower"},
	{Name: "report.policy_ms", Unit: "ms", Better: "lower"},
	{Name: "report.fig9model_ms", Unit: "ms", Better: "lower"},
	{Name: "report.allocs_per_page", Unit: "count", Better: "lower"},
	// core
	{Name: "core.replay_ms.h1", Unit: "ms", Better: "lower"},
	{Name: "core.replay_ms.h2", Unit: "ms", Better: "lower"},
	{Name: "core.replay_ms.h3", Unit: "ms", Better: "lower"},
	{Name: "core.page_visits", Unit: "count", Better: "higher"},
	{Name: "core.allocs_per_visit", Unit: "count", Better: "lower"},
	{Name: "core.reused_conn_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.consistent_violations", Unit: "count", Better: "lower"},
	// browser
	{Name: "browser.request_ns", Unit: "ns", Better: "lower"},
	{Name: "browser.request_allocs", Unit: "count", Better: "lower"},
	{Name: "browser.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "browser.fallback_421", Unit: "count", Better: "lower"},
	{Name: "browser.preconnect_wasted_ratio", Unit: "ratio", Better: "lower"},
	// cache
	{Name: "cache.dns_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.ticket_redeem_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.dns_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.resume_ratio", Unit: "ratio", Better: "higher"},
	{Name: "cache.certmemo_hit_ratio", Unit: "ratio", Better: "higher"},
	// quic / qpack
	{Name: "quic.establish_ns", Unit: "ns", Better: "lower"},
	{Name: "quic.zero_rtt_ratio", Unit: "ratio", Better: "higher"},
	{Name: "qpack.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "qpack.decode_ns", Unit: "ns", Better: "lower"},
	// cdn
	{Name: "cdn.setup_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.fig7_ip_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.fig7_origin_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.passive_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.fig8_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.fig9_ms", Unit: "ms", Better: "lower"},
	{Name: "cdn.visit_us", Unit: "us", Better: "lower"},
	{Name: "cdn.faulted_visit_us", Unit: "us", Better: "lower"},
	{Name: "cdn.log_sampled_ratio", Unit: "ratio", Better: "higher"},
	// netsim
	{Name: "netsim.draw_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.checked_new_ns", Unit: "ns", Better: "lower"},
	// loadgen
	{Name: "loadgen.run_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.write_ndjson_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.visits", Unit: "count", Better: "higher"},
	{Name: "loadgen.allocs_per_visit", Unit: "count", Better: "lower"},
	{Name: "loadgen.flash_run_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sim_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sim_mean_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.sim_slo_ratio", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.sim_coalesce_rate", Unit: "ratio", Better: "higher"},
	// scenario
	{Name: "scenario.run_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.table_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.ndjson_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.cells", Unit: "count", Better: "higher"},
	{Name: "scenario.cell_us", Unit: "us", Better: "lower"},
	{Name: "scenario.allocs_per_cell", Unit: "count", Better: "lower"},
	{Name: "scenario.sim_coalesce_pct.chrome_sharded", Unit: "%", Better: "higher"},
	// h2
	{Name: "h2.req_us_p50", Unit: "us", Better: "lower"},
	{Name: "h2.req_us_p99", Unit: "us", Better: "lower"},
	{Name: "h2.req_us_p999", Unit: "us", Better: "lower"},
	{Name: "h2.conn_setup_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "h2.handshake_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "h2.bulk_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "h2.frames_per_req", Unit: "count", Better: "lower"},
	{Name: "h2.misdirected", Unit: "count", Better: "lower"},
	{Name: "h2.origin_frames_seen", Unit: "count", Better: "higher"},
	{Name: "h2.framer_read_ns", Unit: "ns", Better: "lower"},
	{Name: "h2.framer_write_ns", Unit: "ns", Better: "lower"},
	// hpack
	{Name: "hpack.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "hpack.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "hpack.huffman_decode_mb_s", Unit: "MB/s", Better: "higher"},
	// certs / dns / doh
	{Name: "certs.issue_ms", Unit: "ms", Better: "lower"},
	{Name: "certs.chain_bytes", Unit: "B", Better: "lower"},
	{Name: "dns.resolve_ns", Unit: "ns", Better: "lower"},
	{Name: "doh.resolve_us", Unit: "us", Better: "lower"},
	// obs
	{Name: "obs.trace_event_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.recorder_on_ratio", Unit: "ratio", Better: "lower"},
	// parallel
	{Name: "parallel.scale_eff_w2", Unit: "ratio", Better: "higher"},
	// process
	{Name: "process.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

// spanMetrics maps a per-iteration self-time metric (ms) to the span
// whose self time it reports.
var spanMetrics = map[string]string{
	"webgen.generate_ms":      "webgen.generate",
	"corpus.col_encode_ms":    "corpus.col_encode",
	"corpus.col_decode_ms":    "corpus.col_decode",
	"report.fold_ms":          "report.fold",
	"report.tables_ms":        "report.tables",
	"report.figures_ms":       "report.figures",
	"report.policy_ms":        "report.policy",
	"report.fig9model_ms":     "report.fig9model",
	"core.replay_ms.h1":       "core.replay.h1",
	"core.replay_ms.h2":       "core.replay.h2",
	"core.replay_ms.h3":       "core.replay.h3",
	"cdn.setup_ms":            "cdn.setup",
	"cdn.fig7_ip_ms":          "cdn.fig7_ip",
	"cdn.fig7_origin_ms":      "cdn.fig7_origin",
	"cdn.passive_ms":          "cdn.passive",
	"cdn.fig8_ms":             "cdn.fig8",
	"cdn.fig9_ms":             "cdn.fig9",
	"loadgen.run_ms":          "loadgen.run",
	"loadgen.write_ndjson_ms": "loadgen.write_ndjson",
	"scenario.run_ms":         "scenario.run",
	"scenario.table_ms":       "scenario.table",
	"scenario.ndjson_ms":      "scenario.ndjson",
}
