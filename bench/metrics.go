package main

import "repro/internal/metrics"

// metricDef declares one metric exactly as BENCHMARK.json lists it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics measured with tracing off. Every workload
// reports every one of them and none can read 0: the driver compares
// them against the parent commit by relative bound. The engine-only
// (src_tuples_per_s, step_ms_p50) and net-only (tick_keepup) metrics of
// the issue, and failed_ops_frac, which reads 0 on a healthy run, are
// per-layer here for that reason. So is live_heap_mb: it repeats within
// 1% on the engine, but a networked run's batch pools keep the buffers of
// the longest stall the host put it through, and three runs in fifty
// read 12-50% over the rest.
var endToEnd = []metricDef{
	{"src_tuples_per_cpu_s", "tuples/CPU-s", "higher", 0.25},
	{"mean_sic", "SIC", "higher", 0.15},
	{"jain", "index", "higher", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// cpuShareLayers are the buckets of the CPU profile: one per package
// under internal/ that a workload can enter, then the Go runtime and
// library buckets, then everything else.
var cpuShareLayers = []string{
	"sources", "core", "stream", "operator", "query", "node", "coordinator", "sic",
	"cql", "federation", "parallel", "transport",
	"go.runtime", "go.json", "go.syscall", "go.rand", "other",
}

// perLayer are the metrics of the traced run. A metric of a layer the
// workload never enters reads 0 (engine workloads open no socket, net
// workloads make no Engine.Step outside their replay).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var ms []metricDef
	for _, l := range cpuShareLayers {
		ms = append(ms, metricDef{Name: l + ".cpu_share", Unit: "ratio", Better: "lower"})
	}
	return append(ms, []metricDef{
		{Name: "src_tuples_per_s", Unit: "tuples/s", Better: "higher"},
		{Name: "step_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "tick_keepup", Unit: "ratio", Better: "higher"},
		{Name: "failed_ops_frac", Unit: "ratio", Better: "lower"},
		{Name: "live_heap_mb", Unit: "MB", Better: "lower"},
		{Name: "node.arrived_tuples", Unit: "count", Better: "higher"},
		{Name: "node.kept_tuples", Unit: "count", Better: "higher"},
		{Name: "node.shed_tuples", Unit: "count", Better: "lower"},
		{Name: "node.shed_frac", Unit: "ratio", Better: "lower"},
		{Name: "node.dropped_tuples", Unit: "count", Better: "lower"},
		{Name: "node.dropped_sic", Unit: "SIC", Better: "lower"},
		{Name: "node.shared_instances", Unit: "count", Better: "lower"},
		{Name: "node.subscriptions", Unit: "count", Better: "higher"},
		{Name: "node.tick_ms_mean", Unit: "ms", Better: "lower"},
		{Name: "core.select_calls", Unit: "count", Better: "lower"},
		{Name: "core.select_us_per_call", Unit: "us", Better: "lower"},
		{Name: "core.select_share", Unit: "ratio", Better: "lower"},
		{Name: "core.select_ns_per_batch", Unit: "ns", Better: "lower"},
		{Name: "federation.steps", Unit: "count", Better: "higher"},
		{Name: "federation.step_ms_p99", Unit: "ms", Better: "lower"},
		{Name: "federation.step_ms_max", Unit: "ms", Better: "lower"},
		{Name: "federation.submit_us_mean", Unit: "us", Better: "lower"},
		{Name: "cql.plan_cold_us", Unit: "us", Better: "lower"},
		{Name: "cql.plan_warm_us", Unit: "us", Better: "lower"},
		{Name: "cql.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "coordinator.update_msgs", Unit: "count", Better: "lower"},
		{Name: "coordinator.update_bytes", Unit: "bytes", Better: "lower"},
		{Name: "coordinator.report_ns", Unit: "ns", Better: "lower"},
		{Name: "sic.accumulator_add_ns", Unit: "ns", Better: "lower"},
		{Name: "sources.emit_ns_per_tuple", Unit: "ns", Better: "lower"},
		{Name: "stream.pool_ns_per_get_release", Unit: "ns", Better: "lower"},
		{Name: "stream.window_ns_per_tuple", Unit: "ns", Better: "lower"},
		{Name: "stream.pool_live", Unit: "count", Better: "lower"},
		{Name: "query.exec_ns_per_tuple", Unit: "ns", Better: "lower"},
		{Name: "parallel.step_speedup", Unit: "ratio", Better: "higher"},
		{Name: "node.snapshot_us_per_fragment", Unit: "us", Better: "lower"},
		{Name: "node.snapshot_bytes_per_fragment", Unit: "bytes", Better: "lower"},
		{Name: "node.restore_us_per_fragment", Unit: "us", Better: "lower"},
		{Name: "transport.socket_tax_ns_per_tuple", Unit: "ns", Better: "lower"},
		{Name: "transport.build_ms", Unit: "ms", Better: "lower"},
		{Name: "transport.submit_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "transport.submit_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "transport.retract_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "transport.recovery_ms", Unit: "ms", Better: "lower"},
		{Name: "transport.recovery_restored", Unit: "count", Better: "higher"},
		{Name: "transport.stats_frames", Unit: "count", Better: "higher"},
		{Name: "transport.sic_gap_vs_engine", Unit: "SIC", Better: "lower"},
		{Name: "bench.churn_late_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	}...)
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 50) }

// p99 returns the 99th percentile when at least ten samples lie beyond
// it, and the maximum otherwise.
func p99(xs []float64) float64 {
	if len(xs) < 1000 {
		return metrics.Percentile(xs, 100)
	}
	return metrics.Percentile(xs, 99)
}
