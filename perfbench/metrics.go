package main

import (
	"fmt"
	"regexp"
)

// metricDef names one reported metric. The same tables are checked against
// BENCHMARK.json by the benchmark's own test.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists what a user of the system sees, reported by the untraced
// run (--trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"step_ns", "ns", "lower"},
	{"step_ns_b8", "ns", "lower"},
	{"campaign_inj_per_s", "1/s", "higher"},
	{"campaign_inj_per_s_b8", "1/s", "higher"},
	{"heap_peak_mb", "MB", "lower"},
}

// perLayer lists what the traced run (--trace 1) reports: the split of the
// end-to-end figures into layers, and the sdcd throughput and latency
// figures, which only sdcd-mix drives (the other workloads report 0 for
// them). README.md maps each to the metric it should move.
var perLayer = []metricDef{
	{"ode.step_self_ns", "ns", "lower"},
	{"ode.trials_per_step", "count", "lower"},
	{"problems.eval_ns_per_step", "ns", "lower"},
	{"problems.evals_per_step", "count", "lower"},
	{"core.validate_self_ns", "ns", "lower"},
	{"core.validates_per_step", "count", "lower"},
	{"core.mean_order", "count", "lower"},
	{"la.computed_bytes_per_step", "B", "lower"},
	{"batch.round_ns", "ns", "lower"},
	{"batch.steps_per_round", "count", "higher"},
	{"batch.eval_ns_per_step", "ns", "lower"},
	{"batch.plan_finish_ns_per_step", "ns", "lower"},
	{"batch.self_ns_per_step", "ns", "lower"},
	{"batch.vs_serial", "ratio", "lower"},
	{"harness.campaign_ms_p50", "ms", "lower"},
	{"harness.campaign_ms_p90", "ms", "lower"},
	{"harness.reps_merged", "count", "higher"},
	{"harness.reps_executed", "count", "lower"},
	{"harness.reps_used_frac", "ratio", "higher"},
	{"harness.shadow_evals_per_step", "count", "lower"},
	{"harness.eval_share", "ratio", "lower"},
	{"inject.injections_per_rep", "count", "higher"},
	{"sdcd_shards_per_s", "1/s", "higher"},
	{"sdcd_cold_p50_ms", "ms", "lower"},
	{"sdcd_cold_p90_ms", "ms", "lower"},
	{"sdcd_hit_p50_ms", "ms", "lower"},
	{"sdcd_hit_p90_ms", "ms", "lower"},
	{"server.post_hit_ms_p50", "ms", "lower"},
	{"server.post_cold_ms_p50", "ms", "lower"},
	{"server.inflight_ms_p50", "ms", "lower"},
	{"server.http_overhead_ms_p50", "ms", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	{"server.shards_run", "count", "higher"},
	{"server.replicates_run", "count", "higher"},
	{"server.cache_hits", "count", "higher"},
	{"server.shard_cache_hits", "count", "higher"},
	{"server.disk_hits", "count", "higher"},
	{"server.rejected_503", "count", "lower"},
	{"store.journal_records", "count", "higher"},
	{"store.bytes_written", "B", "lower"},
	{"setup.replay_ms", "ms", "lower"},
	{"setup.warmup_ms", "ms", "lower"},
	{"trace.overhead_frac", "ratio", "lower"},
	{"trace.unattributed_frac", "ratio", "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill builds the metrics object for defs from values, failing on a name
// outside the allowed alphabet, a missing value, or a value no table names.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		if !metricName.MatchString(d.name) {
			return nil, fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", d.name)
		}
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the metric table", name)
		}
	}
	return out, nil
}
