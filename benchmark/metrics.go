package main

import "vodcluster/internal/stats"

// metricDef names one benchmark metric. BENCHMARK.json carries the same
// table for the driver; TestBenchmarkJSONMatchesTables keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline's median by which an end-to-end
	// metric may worsen before -compare calls it a regression. Per-layer
	// metrics have none.
	Bound float64
}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them on the untraced pass; README.md says what one
// operation is on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the single-layer metrics of the traced pass, named
// <module>.<metric>. A traced run prints all of them; a value of 0 means the
// workload never entered that layer, which is the prediction "no change" for
// an optimisation of it. README.md maps each to the end-to-end metric and
// workload it should move.
var perLayer = []metricDef{
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.plan_objective", Unit: "score", Better: "higher"},
	{Name: "go.mallocs_per_op", Unit: "count", Better: "lower"},
	{Name: "go.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "go.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},

	{Name: "zipf.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.requests", Unit: "count", Better: "higher"},
	{Name: "vodcluster.pipeline_s", Unit: "s", Better: "lower"},

	{Name: "sim.run_s", Unit: "s", Better: "lower"},
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cluster.admit_release_ns", Unit: "ns", Better: "lower"},
	{Name: "policy.factory_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.aggregate_s", Unit: "s", Better: "lower"},
	{Name: "exp.sweep_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "exp.parallel_speedup", Unit: "ratio", Better: "higher"},

	{Name: "replicate.adams_s", Unit: "s", Better: "lower"},
	{Name: "replicate.zipf_s", Unit: "s", Better: "lower"},
	{Name: "replicate.classification_s", Unit: "s", Better: "lower"},
	{Name: "apportion.divisor_s", Unit: "s", Better: "lower"},
	{Name: "place.slf_s", Unit: "s", Better: "lower"},
	{Name: "core.validate_s", Unit: "s", Better: "lower"},

	{Name: "anneal.initial_s", Unit: "s", Better: "lower"},
	{Name: "anneal.minimize_s", Unit: "s", Better: "lower"},
	{Name: "anneal.proposals_per_s", Unit: "1/s", Better: "higher"},
	{Name: "anneal.accept_ratio", Unit: "ratio", Better: "higher"},
	{Name: "anneal.evaluate_ns", Unit: "ns", Better: "lower"},
	{Name: "rebalance.round_ms", Unit: "ms", Better: "lower"},

	{Name: "loadgen.echo_rtt_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.slo_ok_ratio", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.achieved_rate_ratio", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.lateness_p50_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lateness_p99_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.lateness_max_us", Unit: "us", Better: "lower"},

	{Name: "serve.cluster.reserve_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.policy.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine.open_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine.close_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine.open_k1_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine.dispatch_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.engine.open_traced_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.snapshot_conflicts", Unit: "ratio", Better: "lower"},
	{Name: "obs.tracer_record_ns", Unit: "ns", Better: "lower"},

	{Name: "serve.ingress.front_overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingress.batch_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "serve.ingress.fallback_rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.ingress.fallback_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.mux.rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.metrics.render_us", Unit: "us", Better: "lower"},
	{Name: "serve.client.fastconn_rtt_us", Unit: "us", Better: "lower"},
	{Name: "serve.client.request_rtt_us", Unit: "us", Better: "lower"},

	{Name: "serve.failover.fail_backend_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.failover.failed_over", Unit: "count", Better: "higher"},
	{Name: "serve.failover.dropped", Unit: "count", Better: "lower"},
	{Name: "serve.rebalance.land_us", Unit: "us", Better: "lower"},
	{Name: "serve.rebalance.evict_us", Unit: "us", Better: "lower"},
	{Name: "serve.rebalance.evict_pinned_retries", Unit: "count", Better: "lower"},
	{Name: "serve.expiry.settled_per_s", Unit: "1/s", Better: "higher"},
	{Name: "serve.reject_ratio", Unit: "ratio", Better: "lower"},
	{Name: "serve.sim_gap_pp", Unit: "pp", Better: "lower"},
}

// sample is the set of per-repetition values of one metric. The reported
// value is the median, printed with the extremes and the count so the
// run-to-run spread is visible next to it.
type sample []float64

// quantile is stats.Quantile, 0 on an empty slice; q is in [0, 1].
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func (s sample) median() float64 { return quantile(s, 0.5) }

// reported is one metric of a finished run as the detail file and -compare
// see it.
type reported struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func report(unit string, s sample) reported {
	return reported{Value: s.median(), Unit: unit, Min: quantile(s, 0), Max: quantile(s, 1), N: len(s)}
}
