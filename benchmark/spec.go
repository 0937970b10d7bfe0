package main

// metricSpec declares one metric the harness emits. The names, units and
// directions here are the same as in BENCHMARK.json (smoke_test.go keeps
// the two from drifting apart).
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse (per-layer metrics have none).
	Bound float64
	// Moves names the end-to-end metric (and workload) a per-layer metric
	// is expected to move; see README.md for the full interaction table.
	Moves string
}

// workloadNames lists the workloads in the order the suite runs them.
var workloadNames = []string{
	"static_dense", "absorb_cutedge", "absorb_repartition",
	"cluster_tcp", "wire_exchange", "serve_mixed",
}

// endToEnd is what a user of the system sees. Every workload reports all
// five; what "update" and "answer" mean per workload is in README.md.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "update_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "answer_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// perLayer is emitted by the traced run (--trace 1). Times are means per
// update operation unless the name says p50; counts are taken over the
// first cycle only, which is the same work for the same seed however fast
// the machine is, so they repeat exactly. A layer a workload does not
// exercise reports 0.
var perLayer = []metricSpec{
	{Name: "gen.graph_s", Unit: "s", Better: "lower", Moves: "setup_s (all)"},
	{Name: "gen.batch_s", Unit: "s", Better: "lower", Moves: "setup_s (absorb_*, cluster_tcp)"},

	{Name: "partition.dd_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (static_dense, cluster_tcp)"},
	{Name: "partition.edge_cut", Unit: "count", Better: "lower", Moves: "cluster.shipped_mb"},
	{Name: "partition.imbalance", Unit: "ratio", Better: "lower", Moves: "update_p50_ms (static_dense)"},
	{Name: "partition.repart_s", Unit: "s", Better: "lower", Moves: "update_p50_ms (absorb_repartition)"},

	{Name: "sssp.ia_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (static_dense); setup_s (absorb_*)"},
	{Name: "sssp.ia_ops", Unit: "count", Better: "lower", Moves: "sssp.ia_s"},

	{Name: "kernel.dense_gops_s", Unit: "Gop/s", Better: "higher", Moves: "update_p50_ms (static_dense, absorb_repartition)"},
	{Name: "kernel.tile_gops_s", Unit: "Gop/s", Better: "higher", Moves: "update_p50_ms (static_dense, absorb_repartition)"},
	{Name: "kernel.masked_gops_s", Unit: "Gop/s", Better: "higher", Moves: "update_p50_ms (absorb_cutedge)"},
	{Name: "kernel.bytes_per_op", Unit: "B/op", Better: "lower", Moves: "kernel.*_gops_s"},

	{Name: "dv.extend_cols_s", Unit: "s", Better: "lower", Moves: "update_p50_ms (absorb_*)"},
	{Name: "dv.resize_copies", Unit: "count", Better: "lower", Moves: "update_p50_ms, peak_rss_mb (absorb_*)"},
	{Name: "dv.rows_shipped", Unit: "count", Better: "lower", Moves: "cluster.shipped_mb"},
	{Name: "dv.full_rows_shipped", Unit: "count", Better: "lower", Moves: "cluster.shipped_mb"},
	{Name: "dv.max_delta_width", Unit: "count", Better: "lower", Moves: "cluster.shipped_mb"},

	{Name: "core.steps", Unit: "count", Better: "lower", Moves: "update_p50_ms"},
	{Name: "core.step_p50_s", Unit: "s", Better: "lower", Moves: "update_p50_ms"},
	{Name: "core.rc_ops", Unit: "count", Better: "lower", Moves: "update_p50_ms, cpu_ms_per_op"},
	{Name: "core.masked_ops_share", Unit: "ratio", Better: "higher", Moves: "update_p50_ms (absorb_cutedge)"},
	{Name: "core.change_ops", Unit: "count", Better: "lower", Moves: "update_p50_ms (absorb_cutedge)"},
	{Name: "core.change_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (absorb_cutedge, serve_mixed)"},
	{Name: "core.ship_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms"},
	{Name: "core.relax_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (static_dense, absorb_repartition)"},
	{Name: "core.refine_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (static_dense, absorb_repartition)"},
	{Name: "core.queue_batch_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (absorb_*)"},
	{Name: "core.snapshot_s", Unit: "s", Better: "lower", Moves: "answer_p50_ms (engine workloads)"},
	{Name: "core.imbalance_max", Unit: "ratio", Better: "lower", Moves: "cluster.virt_s"},
	{Name: "core.checkpoint_write_s", Unit: "s", Better: "lower", Moves: "none (probe)"},
	{Name: "core.checkpoint_bytes", Unit: "B", Better: "lower", Moves: "none (probe)"},
	{Name: "core.checkpoint_restore_s", Unit: "s", Better: "lower", Moves: "none (probe)"},
	{Name: "core.unattributed_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms"},
	{Name: "core.rows_migrated", Unit: "count", Better: "lower", Moves: "update_p50_ms (absorb_repartition)"},
	{Name: "core.new_cut_edges", Unit: "count", Better: "lower", Moves: "update_p50_ms (absorb_*)"},
	{Name: "core.t_err10_s", Unit: "s", Better: "lower", Moves: "update_p50_ms (static_dense)"},

	{Name: "cluster.messages", Unit: "count", Better: "lower", Moves: "cluster.virt_s"},
	{Name: "cluster.chunks", Unit: "count", Better: "lower", Moves: "cluster.virt_s"},
	{Name: "cluster.bytes", Unit: "B", Better: "lower", Moves: "cluster.shipped_mb"},
	{Name: "cluster.barriers", Unit: "count", Better: "lower", Moves: "cluster.virt_s"},
	{Name: "cluster.virt_s", Unit: "s", Better: "lower", Moves: "none (the quantity the paper plots)"},
	{Name: "cluster.shipped_mb", Unit: "MB", Better: "lower", Moves: "cluster.virt_s"},

	{Name: "transport.bytes_sent", Unit: "B", Better: "lower", Moves: "update_p50_ms (wire_exchange)"},
	{Name: "transport.frames_sent", Unit: "count", Better: "lower", Moves: "answer_p50_ms (wire_exchange)"},
	{Name: "transport.exchanges", Unit: "count", Better: "lower", Moves: "update_p50_ms (cluster_tcp)"},
	{Name: "transport.exchange_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (wire_exchange)"},
	{Name: "transport.tcp_minus_inproc_s", Unit: "s", Better: "lower", Moves: "update_p50_ms (cluster_tcp)"},
	{Name: "transport.inproc_mb_s", Unit: "MB/s", Better: "higher", Moves: "none (reference)"},
	{Name: "transport.events_codec_ns", Unit: "ns", Better: "lower", Moves: "rank.absorb_s"},
	{Name: "transport.retries", Unit: "count", Better: "lower", Moves: "update_p50_ms (wire_exchange)"},
	{Name: "transport.crc_errors", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "transport.wire_mb_s", Unit: "MB/s", Better: "higher", Moves: "update_p50_ms (wire_exchange)"},
	{Name: "transport.rtt_p50_ms", Unit: "ms", Better: "lower", Moves: "answer_p50_ms (wire_exchange)"},

	{Name: "rank.step_p50_s", Unit: "s", Better: "lower", Moves: "update_p50_ms (cluster_tcp)"},
	{Name: "rank.relax_ops", Unit: "count", Better: "lower", Moves: "update_p50_ms (cluster_tcp)"},
	{Name: "rank.ia_ops", Unit: "count", Better: "lower", Moves: "update_p50_ms (cluster_tcp)"},
	{Name: "rank.wait_s", Unit: "s/op", Better: "lower", Moves: "update_p50_ms (cluster_tcp)"},
	{Name: "rank.gather_s", Unit: "s", Better: "lower", Moves: "answer_p50_ms (cluster_tcp)"},
	{Name: "rank.events_applied", Unit: "count", Better: "higher", Moves: "none (gate)"},
	{Name: "rank.absorb_s", Unit: "s", Better: "lower", Moves: "cpu_ms_per_op (cluster_tcp)"},

	{Name: "serve.admit_p50_us", Unit: "us", Better: "lower", Moves: "update_p50_ms (serve_mixed)"},
	{Name: "serve.publishes", Unit: "count", Better: "higher", Moves: "update_p50_ms (serve_mixed)"},
	{Name: "serve.queue_depth_max", Unit: "count", Better: "lower", Moves: "update_p50_ms (serve_mixed)"},
	{Name: "serve.rejected_backpressure", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "serve.view_load_ns", Unit: "ns", Better: "lower", Moves: "answer_p50_ms (serve_mixed)"},
	{Name: "serve.topk_beyond_index_ms", Unit: "ms", Better: "lower", Moves: "serve.query_p99_ms"},
	{Name: "serve.snapshot_age_p50_ms", Unit: "ms", Better: "lower", Moves: "update_p50_ms (serve_mixed)"},
	{Name: "serve.gen_late_p99_ms", Unit: "ms", Better: "lower", Moves: "none (generator health)"},
	{Name: "serve.query_p99_ms", Unit: "ms", Better: "lower", Moves: "none (tail, limit 50 ms)"},
	{Name: "serve.limit_miss_share", Unit: "ratio", Better: "lower", Moves: "none (tail, limit 50 ms)"},

	{Name: "centrality.oracle_s", Unit: "s", Better: "lower", Moves: "none (benchmark cost)"},
	{Name: "centrality.topk_ns", Unit: "ns", Better: "lower", Moves: "answer_p50_ms"},

	{Name: "obs.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "none (traced vs untraced update_p50_ms)"},
	{Name: "obs.spans_dropped", Unit: "count", Better: "lower", Moves: "none (budget completeness)"},

	{Name: "bench.ops", Unit: "count", Better: "higher", Moves: "none (sample count of update_p50_ms)"},
	{Name: "bench.update_p90_ms", Unit: "ms", Better: "lower", Moves: "none (tail)"},
	{Name: "bench.answer_p90_ms", Unit: "ms", Better: "lower", Moves: "none (tail)"},
	{Name: "bench.budget_gap_share", Unit: "ratio", Better: "lower", Moves: "none (|parent - sum of self times| / parent)"},
}

// exact lists the per-layer metrics that must repeat bit for bit when the
// same seed runs twice (the -selfcheck gate).
var exact = []string{
	"cluster.virt_s", "cluster.shipped_mb", "core.rc_ops", "core.change_ops",
	"core.steps", "transport.bytes_sent", "sssp.ia_ops", "partition.edge_cut",
}
