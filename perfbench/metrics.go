package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"
)

// metricDef names one reported metric. For per-layer metrics, target names
// the end-to-end metric and workload the layer number should move.
type metricDef struct {
	name, unit, better, target string
}

// endToEnd are the metrics a run prints with --trace 0. Each is present on
// every workload and never zero.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "check_p50_us", unit: "us", better: "lower"},
	{name: "check_p99_us", unit: "us", better: "lower"},
	{name: "live_heap_mb", unit: "MB", better: "lower"},
}

// perLayer are the metrics a run prints with --trace 1. A layer a
// workload does not exercise reports zero.
var perLayer = []metricDef{
	{"reachac.read_after_write_p50_us", "us", "lower", "ops_per_s, check_p99_us on read-mostly-100k"},
	{"reachac.read_after_write_p99_us", "us", "lower", "ops_per_s, check_p99_us on read-mostly-100k"},
	{"reachac.republications", "count", "lower", "zero on cold-checks-100k"},
	{"reachac.republications_per_write", "ratio", "lower", "ops_per_s on read-mostly-100k, http-durable-10k"},
	{"reachac.write_call_p50_us", "us", "lower", "write_p50_us on read-mostly-100k"},
	{"reachac.batch_call_p50_us", "us", "lower", "check_batch_p50_us on cold-checks-100k"},
	{"graph.clone_csr_ms", "ms", "lower", "ops_per_s on read-mostly-100k"},
	{"graph.apply_delta_us", "us", "lower", "reachac.read_after_write_p50_us"},
	{"search.reachable_p50_us", "us", "lower", "check_p50_us on cold-checks-100k"},
	{"search.reachable_p99_us", "us", "lower", "check_p99_us on cold-checks-100k"},
	{"search.route_costs_us", "us", "lower", "check_p50_us on cold-checks-100k"},
	{"search.audience_cold_us", "us", "lower", "audience_p50_us on http-durable-10k"},
	{"search.audience_advance_us", "us", "lower", "write_p50_us on http-durable-10k"},
	{"planner.dcache_hit_ratio", "ratio", "higher", "check_p50_us on read-mostly-100k, cold-checks-100k"},
	{"planner.dcache_hits", "count", "higher", "base of planner.dcache_hit_ratio"},
	{"planner.dcache_misses", "count", "lower", "base of planner.dcache_hit_ratio"},
	{"planner.dcache_evictions_per_write", "ratio", "lower", "check_p50_us on read-mostly-100k"},
	{"planner.route_flat_frac", "ratio", "higher", "check_p50_us on cold-checks-100k"},
	{"planner.route_audience_frac", "ratio", "higher", "check_p50_us on cold-checks-100k"},
	{"planner.route_primary_frac", "ratio", "lower", "check_p50_us on cold-checks-100k"},
	{"planner.dcache_get_us", "us", "lower", "check_p50_us on cold-checks-100k"},
	{"wal.appends", "count", "lower", "nonzero only on http-durable-10k"},
	{"wal.append_p50_us", "us", "lower", "write_p50_us on http-durable-10k"},
	{"wal.append_p99_us", "us", "lower", "write_p99_us on http-durable-10k"},
	{"wal.fsyncs_per_write", "ratio", "lower", "write_p50_us, write_p99_us on http-durable-10k"},
	{"wal.bytes_per_write", "B", "lower", "write_p50_us, write_p99_us on http-durable-10k"},
	{"wal.checkpoints", "count", "lower", "write_p99_us on http-durable-10k"},
	{"server.check_handler_p50_us", "us", "lower", "check_p50_us on http-durable-10k"},
	{"server.check_batch_handler_p50_us", "us", "lower", "check_batch_p50_us on http-durable-10k"},
	{"server.audience_handler_p50_us", "us", "lower", "audience_p50_us on http-durable-10k"},
	{"server.write_handler_p50_us", "us", "lower", "write_p50_us on http-durable-10k"},
	{"client.wire_p50_us", "us", "lower", "check_p50_us on http-durable-10k"},
	{"server.commit_group_size", "ratio", "higher", "write_p50_us on http-durable-10k"},
	{"server.shed", "count", "lower", "failed_frac on http-durable-10k"},
	{"httpapi.codec_us", "us", "lower", "check_batch_p50_us on http-durable-10k"},
	{"setup.generate_s", "s", "lower", "setup_s on every workload"},
	{"setup.load_s", "s", "lower", "setup_s on every workload"},
	{"setup.share_s", "s", "lower", "setup_s on every workload"},
	{"setup.engine_s", "s", "lower", "setup_s on every workload"},
	{"go.gc_cycles", "count", "lower", "check_p99_us on every workload"},
	{"go.gc_pause_total_ms", "ms", "lower", "check_p99_us on every workload"},
	{"go.gc_cpu_frac", "ratio", "lower", "check_p99_us on every workload"},
	{"span.op.self_p50_us", "us", "lower", "benchmark loop overhead on every workload"},
	{"span.reachac.self_p50_us", "us", "lower", "check_p50_us on the embedded workloads"},
	{"span.client.self_p50_us", "us", "lower", "check_p50_us on http-durable-10k"},
	{"span.wire.self_p50_us", "us", "lower", "check_p50_us on http-durable-10k"},
	{"span.server.self_p50_us", "us", "lower", "check_p50_us on http-durable-10k"},
	{"trace.spans", "count", "higher", "spans kept in memory by the traced window"},
	{"trace.overhead_frac", "ratio", "lower", "traced ops_per_s against untraced ops_per_s"},
}

// quantile returns the nearest-rank q-quantile of ns samples, in
// microseconds. No samples read as zero.
func quantile(samples []int64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	if !slices.IsSorted(samples) {
		samples = slices.Clone(samples)
		slices.Sort(samples)
	}
	rank := int(math.Ceil(q*float64(len(samples)))) - 1
	rank = min(max(rank, 0), len(samples)-1)
	return float64(samples[rank]) / 1e3
}

// tailLadder is the percentile ladder tail diagnostics climb.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999}

// highestTail returns the highest percentile of tailLadder that leaves at
// least ten samples beyond it, with its value in microseconds.
func highestTail(samples []int64) (q, us float64) {
	for _, p := range tailLadder {
		if float64(len(samples))*(1-p) >= 10 {
			q = p
		}
	}
	if q == 0 {
		return 0, 0
	}
	return q, quantile(samples, q)
}

// latencyLine prints one latency's p50, p99, highest trustworthy tail and
// sample count.
func latencyLine(w io.Writer, label string, samples []int64) {
	if len(samples) == 0 {
		fmt.Fprintf(w, "# latency %-12s no samples\n", label)
		return
	}
	q, tail := highestTail(samples)
	fmt.Fprintf(w, "# latency %-12s p50=%.2fus p99=%.2fus p%g=%.2fus n=%d\n",
		label, quantile(samples, 0.5), quantile(samples, 0.99), q*100, tail, len(samples))
}

// median returns the median of xs, or zero for none.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// medianSeconds returns the median of ds in seconds.
func medianSeconds(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return median(xs)
}

// ratio divides, reading zero over a zero base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
