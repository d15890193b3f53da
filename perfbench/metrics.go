package main

// metric names one reported number and its unit. BENCHMARK.json at the
// repository root lists the same names and units (TestBenchmarkJSON).
type metric struct{ name, unit string }

// endToEnd are the user-visible metrics of an untraced run (--trace 0).
// Every workload reports every one of them; see LEDGER.md for what each
// means on each workload.
var endToEnd = []metric{
	{"verdict_s", "s"},
	{"audit_s_p50", "s"},
	{"audit_s_p90", "s"},
	{"txns_per_s", "txn/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of a traced run (--trace 1), grouped by the
// module they describe. A layer a workload never reaches reports 0.
var perLayer = []metric{
	{"histio.decode_s", "s"},
	{"histio.log_mb", "MiB"},

	{"history.validate_s", "s"},

	{"core.construct_s", "s"},
	{"core.construct_cpu_s", "s"},
	{"core.nodes", "count"},
	{"core.known_edges", "count"},
	{"core.constraints", "count"},

	{"core.tsorder_s", "s"},
	{"core.ts_decided", "count"},
	{"core.ts_residual", "count"},
	{"core.ts_decided_ratio", "ratio"},

	{"core.resolve_s", "s"},
	{"core.resolved", "count"},
	{"core.resolved_ratio", "ratio"},
	{"core.forced_edges", "count"},
	{"core.closure_mb", "MiB"},

	{"core.encode_s", "s"},
	{"core.retries", "count"},
	{"core.edge_vars", "count"},
	{"core.pruned", "count"},

	{"sat.solve_s", "s"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"acyclic.reorders", "count"},

	{"core.other_s", "s"},

	{"core.audit_construct_s_p50", "s"},
	{"core.audit_resolve_s_p50", "s"},
	{"core.audit_encode_s_p50", "s"},
	{"core.live_txns_max", "count"},
	{"core.checkpoints", "count"},
	{"core.cert_kb", "KiB"},

	{"server.append_s_p50", "s"},
	{"server.audit_req_s_p50", "s"},
	{"server.overhead_s_p50", "s"},
	{"server.errors", "count"},

	{"cluster.shards", "count"},
	{"cluster.wire_mb_out", "MiB"},
	{"cluster.wire_mb_in", "MiB"},
	{"cluster.encode_s", "s"},
	{"cluster.decode_s", "s"},
	{"cluster.replay_s", "s"},
	{"cluster.merge_s", "s"},
	{"cluster.cross_constraints", "count"},
	{"cluster.local_fallbacks", "count"},
	{"cluster.final_check_s", "s"},

	{"trace.overhead", "ratio"},
	{"trace.verdict_s", "s"},

	{"input.txns", "count"},
	{"input.aborted", "count"},
	{"input.sha256_48", "count"},

	{"noise.steal_ticks", "count"},
	{"noise.calib_s", "s"},
}
