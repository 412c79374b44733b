package main

import (
	"math"
	"sort"
)

// Metric kinds. A measured metric is a host-side measurement (wall
// time, bytes, allocations, Minst/s) on the host the run names. A
// model metric is computed on the simulated machine's virtual clock or
// by a scheduling model (vticks, dropped arrivals, LPT makespans);
// while the rewrite charge is clamped by MaxChargeTicks those figures
// read the clamp, so they stay per-layer and never gate a change.
const (
	measured = "measured"
	model    = "model"
)

// Scopes say which rounds a metric is computed from and where it is
// printed. Gated metrics are the end-to-end metrics BENCHMARK.json
// bounds; figure metrics are the named end-to-end figures of each
// workload (rewrite, downtime, rollout, revert, serving, engine
// throughput); layer metrics come from traced rounds only.
const (
	gated  = "e2e"
	figure = "figure"
	layer  = "layer"
)

// metric describes one reported number. Without a sample name the
// value is the median over rounds of the per-round value stored under
// the metric's name; with one it is percentile q of the samples pooled
// across rounds.
type metric struct {
	name, unit, kind, scope string
	sample                  string
	q                       float64
}

func m(name, unit, kind, scope string) metric {
	return metric{name: name, unit: unit, kind: kind, scope: scope}
}

func pct(name, unit, kind, scope, sample string, q float64) metric {
	return metric{name: name, unit: unit, kind: kind, scope: scope, sample: sample, q: q}
}

// Sample sets pooled across rounds.
const (
	sRewrite     = "rewrite_us"  // one whole transactional rewrite
	sDowntime    = "downtime_us" // RewriteStats.Downtime
	sRewriteHead = "rewrite_us.first_tenth"
	sRewriteTail = "rewrite_us.last_tenth"
	sProbe       = "probe_us"
)

// catalog lists every reported number in output order. The gated and
// layer entries must match BENCHMARK.json (TestBenchmarkJSONMatches).
var catalog = []metric{
	m("setup_s", "s", measured, gated),
	m("job_s", "s", measured, gated),
	m("op_us", "us", measured, gated),
	m("heap_mb", "MB", measured, gated),

	pct("rewrite_us_p50", "us", measured, figure, sRewrite, 50),
	pct("rewrite_us_p99", "us", measured, figure, sRewrite, 99),
	pct("rewrite_us_p50_first_tenth", "us", measured, figure, sRewriteHead, 50),
	pct("rewrite_us_p50_last_tenth", "us", measured, figure, sRewriteTail, 50),
	pct("downtime_us_p50", "us", measured, figure, sDowntime, 50),
	pct("downtime_us_p99", "us", measured, figure, sDowntime, 99),
	m("rollout_s", "s", measured, figure),
	m("revert_s", "s", measured, figure),
	m("served_per_s", "req/s", measured, figure),
	m("interp_minst_s", "Minst/s", measured, figure),
	m("translate_minst_s", "Minst/s", measured, figure),
	m("failed_frac", "ratio", measured, figure),

	m("kernel.run_s", "s", measured, layer),
	m("kernel.vticks", "vticks", model, layer),
	m("kernel.minst_s", "Minst/s", measured, layer),
	m("kernel.allocs_per_kinst", "allocs/kinst", measured, layer),
	m("kernel.bcache.hit_frac", "ratio", measured, layer),
	m("kernel.bcache.translations", "count", measured, layer),
	pct("kernel.probe_us_p50", "us", measured, layer, sProbe, 50),
	m("kernel.dead_procs", "count", measured, layer),

	m("criu.checkpoint_us", "us", measured, layer),
	m("criu.decode_us", "us", measured, layer),
	m("criu.restore_us", "us", measured, layer),
	m("criu.image_bytes", "B", measured, layer),
	m("criu.delta_skip_frac", "ratio", measured, layer),

	m("store.deposit_us", "us", measured, layer),
	m("store.materialize_us", "us", measured, layer),
	m("store.dedup_frac", "ratio", measured, layer),
	m("store.stored_bytes", "B", measured, layer),

	m("crit.edit_us", "us", measured, layer),
	m("crit.handler_us", "us", measured, layer),
	m("crit.blocks_patched", "count", measured, layer),

	m("core.validate_us", "us", measured, layer),
	m("core.kill_us", "us", measured, layer),
	m("core.health_us", "us", measured, layer),
	m("core.self_us", "us", measured, layer),
	m("core.attempts", "count", measured, layer),
	m("core.rolled_back", "count", measured, layer),
	m("core.killed_procs", "count", measured, layer),

	m("fleet.new_ms", "ms", measured, layer),
	m("fleet.controller_ms", "ms", measured, layer),
	m("fleet.attest_us", "us", measured, layer),
	m("fleet.journal_bytes", "B", measured, layer),
	m("fleet.lease_expired", "count", measured, layer),
	m("fleet.requeues", "count", measured, layer),
	m("fleet.makespan_vticks", "vticks", model, layer),

	m("loadgen.offered", "count", measured, layer),
	m("loadgen.served", "count", measured, layer),
	m("loadgen.errors", "count", measured, layer),
	m("loadgen.host_us_per_req", "us", measured, layer),
	m("loadgen.dropped", "count", model, layer),
	m("slo.p99_vticks", "vticks", model, layer),
	m("slo.journal_downtime_vticks", "vticks", model, layer),
	m("slo.observed_downtime_vticks", "vticks", model, layer),
	m("slo.downtime_match_frac", "ratio", measured, layer),

	m("trace.profile_ms", "ms", measured, layer),
	m("coverage.diff_us", "us", measured, layer),

	m("obs.overhead_frac", "ratio", measured, layer),
	m("obs.dropped", "count", measured, layer),

	m("split.build_frac", "ratio", measured, layer),
	m("split.kernel_frac", "ratio", measured, layer),
	m("split.criu_frac", "ratio", measured, layer),
	m("split.store_frac", "ratio", measured, layer),
	m("split.crit_frac", "ratio", measured, layer),
	m("split.core_frac", "ratio", measured, layer),
	m("split.fleet_frac", "ratio", measured, layer),
	m("split.loadgen_frac", "ratio", measured, layer),
	m("split.trace_frac", "ratio", measured, layer),
	m("split.coverage_frac", "ratio", measured, layer),
	m("split.unattributed_frac", "ratio", measured, layer),
}

// percentile returns the nearest-rank percentile q (0 < q <= 100) of
// xs, or 0 for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle value of xs (mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// aggregate computes one metric over the given rounds.
func aggregate(mt metric, rounds []*round) float64 {
	if mt.sample != "" {
		var pooled []float64
		for _, r := range rounds {
			pooled = append(pooled, r.Samples[mt.sample]...)
		}
		return percentile(pooled, mt.q)
	}
	var vs []float64
	for _, r := range rounds {
		if v, ok := r.Values[mt.name]; ok {
			vs = append(vs, v)
		}
	}
	return median(vs)
}
