// Command perfbench is the repository benchmark. It runs one named
// workload against the reachac access-control stack in a closed loop with
// one goroutine per worker, checks a sample of its decisions against an
// independent engine, and prints its metrics as one JSON object on the
// last line of standard output. Lines before it, each starting with "#",
// record the host, the inputs and diagnostics.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload cold-checks-100k --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics. With --trace 1 it runs
// an untraced window and then a traced one, and prints the per-layer
// metrics: counter deltas, span self times, replays of the recorded
// inputs against single layers, and the tracing overhead.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"reachac/internal/workload"
)

// options configure one run.
type options struct {
	spec workloadSpec
	// seed drives the operation streams.
	seed    int64
	nodes   int
	workers int
	window  time.Duration
	warmup  time.Duration
	trace   bool
	// setups is how many times the system is set up; setup_s is the
	// median and the last set-up serves the run.
	setups int
	// samples is the size of the correctness sample.
	samples int
	// dir receives data directories and trace files.
	dir string
	// log receives the "#" diagnostic lines.
	log io.Writer
}

// result is the JSON object a run prints last.
type result struct {
	correct           bool
	attempted, failed uint64
	defs              []metricDef
	values            map[string]float64
	// minSelf is the smallest span self time of a traced run.
	minSelf int64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Int64("seed", 1, "seed of the operation streams")
		seconds = flag.Float64("seconds", 10, "measured window in seconds")
		traced  = flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
		dir     = flag.String("dir", ".bench_build", "directory for data directories and trace files")
	)
	flag.Parse()
	spec, err := findWorkload(*wl)
	if err != nil {
		log.Fatal(err)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		log.Fatal("--seconds must be positive and --trace 0 or 1")
	}
	// Every workload runs 2 closed-loop workers: an access check is called
	// synchronously by a request handler that waits for the decision, and
	// 2 matches the CPUs of the host the benchmark was written on.
	o := options{
		spec: spec, seed: *seed, nodes: spec.nodes, workers: 2,
		window: time.Duration(*seconds * float64(time.Second)),
		trace:  *traced == 1, setups: 5, samples: 1500,
		dir: *dir, log: os.Stdout,
	}
	// Warm up for a quarter of the window, at most three seconds.
	o.warmup = min(o.window/4, 3*time.Second)
	res, err := run(o)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.json())
	if !res.correct {
		os.Exit(1)
	}
}

// run sets the workload up, drives it, replays its inputs against single
// layers when tracing, and checks its decisions.
func run(o options) (*result, error) {
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	h, err := recordHost(o.dir, o.workers)
	fmt.Fprintf(o.log, "# host %s\n", h)
	if err != nil {
		return nil, err
	}
	var st *stack
	var times []setupTimes
	for i := 0; i < o.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
		var t setupTimes
		if st, t, err = setUp(o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, t)
	}
	// Releases the stack on error paths; the success path closes it last
	// and reports the error. Closing twice is harmless.
	defer st.close()
	fmt.Fprintf(o.log, "# workload %s seed=%d users=%d relationships=%d resources=%d workers=%d window=%s warmup=%s\n",
		o.spec.name, o.seed, st.g.NumNodes(), st.g.NumEdges(), len(st.specs), o.workers, o.window, o.warmup)
	phase := func(f func(setupTimes) time.Duration) float64 {
		ds := make([]time.Duration, len(times))
		for i, t := range times {
			ds[i] = f(t)
		}
		return medianSeconds(ds)
	}
	m := map[string]float64{
		"setup_s":          phase(setupTimes.total),
		"setup.generate_s": phase(func(t setupTimes) time.Duration { return t.generate }),
		"setup.load_s":     phase(func(t setupTimes) time.Duration { return t.load }),
		"setup.share_s":    phase(func(t setupTimes) time.Duration { return t.share }),
		"setup.engine_s":   phase(func(t setupTimes) time.Duration { return t.engine }),
	}
	fmt.Fprintf(o.log, "# setup median of %d: total=%.3fs generate=%.3fs load=%.3fs share=%.3fs engine=%.3fs\n",
		len(times), m["setup_s"], m["setup.generate_s"], m["setup.load_s"], m["setup.share_s"], m["setup.engine_s"])

	ws := newWorkerStates(st.generators(o.workers))
	res := &result{defs: endToEnd, values: m}
	w, err := runWindow(st, ws, o.warmup, o.window, nil)
	if err != nil {
		return nil, err
	}
	report(o, "untraced", w)
	account(res, w)
	if o.trace {
		// Trace one operation in every so many that the spans the untraced
		// rate predicts fit the buffers: an embedded operation records 2
		// spans, an HTTP one 4.
		const spanLimit = 400_000
		spansPerOp := 2.0
		if st.plain != nil {
			spansPerOp = 4
		}
		predicted := w.opsPerSec() * o.window.Seconds() * spansPerOp
		every := uint64(max(1, math.Ceil(1.25*predicted/float64(o.workers*spanLimit))))
		fmt.Fprintf(o.log, "# trace one operation in %d\n", every)
		tr := newTracer(o.workers, spanLimit, every)
		tw, err := runWindow(st, ws, 0, o.window, tr)
		if err != nil {
			return nil, err
		}
		report(o, "traced", tw)
		account(res, tw)
		res.defs = perLayer
		if err := layerMetrics(o, st, ws, w, tw, tr, res); err != nil {
			return nil, err
		}
	} else {
		subSec := o.window.Seconds() / subWindows
		ops := w.perSub(func(ok int, _ []int64) float64 { return float64(ok) / subSec })
		p50 := w.perSub(func(_ int, c []int64) float64 { return quantile(c, 0.5) })
		p99 := w.perSub(func(_ int, c []int64) float64 { return quantile(c, 0.99) })
		fmt.Fprintf(o.log, "# subwindows ops_per_s=%.0f check_p50_us=%.3f check_p99_us=%.3f\n", ops, p50, p99)
		m["ops_per_s"] = median(ops)
		m["check_p50_us"] = median(p50)
		m["check_p99_us"] = median(p99)
		m["live_heap_mb"] = w.heapMB
	}
	for i, s := range ws {
		fmt.Fprintf(o.log, "# input worker=%d digest_first_%d_ops=%016x ops=%d\n", i, digestOps, s.digest, s.streamOps)
	}

	v, err := verify(st, o.samples)
	if err != nil {
		return nil, fmt.Errorf("correctness pass: %w", err)
	}
	res.correct = len(v.mismatches) == 0
	fmt.Fprintf(o.log, "# correctness oracle=%s checks=%d batch_decisions=%d audiences=%d audience_probes=%d mismatches=%d\n",
		oracleKind, v.checks, v.batchDecisions, v.audiences, v.members, len(v.mismatches))
	for _, mm := range v.mismatches {
		fmt.Fprintf(o.log, "# MISMATCH %s\n", mm)
	}
	return res, st.close()
}

// account adds a window's operations to the result's totals.
func account(res *result, w *window) {
	t := w.total()
	res.attempted += t.attempted
	res.failed += t.errs + t.shed
}

// report prints a window's failure accounting and latencies.
func report(o options, label string, w *window) {
	t := w.total()
	fmt.Fprintf(o.log, "# window %s elapsed=%.3fs ops_per_s=%.1f attempted=%d ok=%d error=%d shed=%d failed_frac=%g live_heap_mb=%.1f cpu_steal_frac=%.4f\n",
		label, w.elapsed.Seconds(), w.opsPerSec(), t.attempted, t.ok, t.errs, t.shed,
		ratio(float64(t.errs+t.shed), float64(t.attempted)), w.heapMB, w.steal)
	for k, c := range w.counts {
		if c.attempted > 0 {
			fmt.Fprintf(o.log, "# ops %-11s attempted=%d ok=%d error=%d shed=%d\n",
				workload.OpKind(k), c.attempted, c.ok, c.errs, c.shed)
		}
	}
	latencyLine(o.log, "check", w.lat[workload.OpCheck])
	latencyLine(o.log, "check_batch", w.lat[workload.OpCheckBatch])
	latencyLine(o.log, "audience", w.lat[workload.OpAudience])
	latencyLine(o.log, "write", w.latencies(workload.OpRelate, workload.OpUnrelate, workload.OpShare, workload.OpRevoke))
	s := w.stats
	fmt.Fprintf(o.log, "# counters republications=%d dcache_hits=%d dcache_misses=%d dcache_hit_ratio=%.4f wal_appends=%d wal_fsyncs=%d\n",
		s.Republications, s.DecisionCacheHits, s.DecisionCacheMisses,
		ratio(float64(s.DecisionCacheHits), float64(s.DecisionCacheHits+s.DecisionCacheMisses)), s.WALAppends, s.WALFsyncs)
}

// layerMetrics fills the per-layer metrics from the traced window w, its
// spans and the replays into res; plain is the untraced window before it.
func layerMetrics(o options, st *stack, ws []*workerState, plain, w *window, tr *tracer, res *result) error {
	m := res.values
	s := w.stats
	writes := w.latencies(workload.OpRelate, workload.OpUnrelate, workload.OpShare, workload.OpRevoke)
	nWrites := float64(len(writes))
	m["reachac.read_after_write_p50_us"] = quantile(w.readAfterWrite, 0.5)
	m["reachac.read_after_write_p99_us"] = quantile(w.readAfterWrite, 0.99)
	m["reachac.republications"] = float64(s.Republications)
	m["reachac.republications_per_write"] = ratio(float64(s.Republications), nWrites)
	if st.plain == nil {
		m["reachac.write_call_p50_us"] = quantile(writes, 0.5)
		m["reachac.batch_call_p50_us"] = quantile(w.lat[workload.OpCheckBatch], 0.5)
	}
	lookups := float64(s.DecisionCacheHits + s.DecisionCacheMisses)
	m["planner.dcache_hits"] = float64(s.DecisionCacheHits)
	m["planner.dcache_misses"] = float64(s.DecisionCacheMisses)
	m["planner.dcache_hit_ratio"] = ratio(float64(s.DecisionCacheHits), lookups)
	m["planner.dcache_evictions_per_write"] = ratio(float64(s.DecisionCacheEvictions), nWrites)
	flat := float64(s.PlannerRouteFlatForward + s.PlannerRouteFlatReverse)
	routes := flat + float64(s.PlannerRouteAudience+s.PlannerRoutePrimary)
	m["planner.route_flat_frac"] = ratio(flat, routes)
	m["planner.route_audience_frac"] = ratio(float64(s.PlannerRouteAudience), routes)
	m["planner.route_primary_frac"] = ratio(float64(s.PlannerRoutePrimary), routes)
	m["wal.appends"] = float64(s.WALAppends)
	m["wal.fsyncs_per_write"] = ratio(float64(s.WALFsyncs), nWrites)
	m["wal.checkpoints"] = float64(s.Checkpoints)
	m["server.commit_group_size"] = ratio(float64(w.server.CoalescedMutations), float64(w.server.CommitGroups))
	m["server.shed"] = float64(w.server.QueueRejected + w.server.CheckRejected)
	m["go.gc_cycles"] = float64(w.gc.cycles)
	m["go.gc_pause_total_ms"] = float64(w.gc.pauseTotal) / 1e6
	m["go.gc_cpu_frac"] = ratio(w.gc.gcCPU, w.gc.totalCPU)
	m["trace.overhead_frac"] = 1 - ratio(w.opsPerSec(), plain.opsPerSec())
	fmt.Fprintf(o.log, "# trace untraced_ops_per_s=%.1f traced_ops_per_s=%.1f dropped_spans=%d\n",
		plain.opsPerSec(), w.opsPerSec(), tr.dropped.Load())

	spans := tr.spans()
	m["trace.spans"] = float64(len(spans))
	self := selfTimes(spans)
	if len(self) > 0 {
		res.minSelf = slices.Min(self)
	}
	byLayer := map[string][]int64{}
	handlers := map[string][]int64{}
	for i, sp := range spans {
		byLayer[sp.layer()] = append(byLayer[sp.layer()], self[i])
		if sp.layer() == "server" {
			handlers[sp.name] = append(handlers[sp.name], sp.end-sp.start)
		}
	}
	for _, layer := range []string{"op", "reachac", "client", "wire", "server"} {
		m["span."+layer+".self_p50_us"] = quantile(byLayer[layer], 0.5)
	}
	m["client.wire_p50_us"] = m["span.wire.self_p50_us"]
	m["server.check_handler_p50_us"] = quantile(handlers["server.check"], 0.5)
	m["server.check_batch_handler_p50_us"] = quantile(handlers["server.check-batch"], 0.5)
	m["server.audience_handler_p50_us"] = quantile(handlers["server.audience"], 0.5)
	m["server.write_handler_p50_us"] = quantile(handlers["server.write"], 0.5)
	if err := os.MkdirAll(filepath.Join(o.dir, "traces"), 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.dir, "traces", o.spec.name+".tsv")
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "# trace spans=%d written to %s\n", len(spans), path)

	if err := replayLayers(o, st, ws, m); err != nil {
		return fmt.Errorf("layer replays: %w", err)
	}
	for _, d := range perLayer {
		fmt.Fprintf(o.log, "# layer %-36s %14.4f %-5s -> %s\n", d.name, m[d.name], d.unit, d.target)
	}
	return nil
}

// json renders the result line. Metrics keep their declared order and
// every value is printed with all its digits.
func (r *result) json() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, r.attempted, r.failed)
	for i, d := range r.defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
	}
	b.WriteString("}}")
	return b.String()
}

// heldBytes estimates the heap the benchmark's own recordings hold, so
// live_heap_mb measures the system rather than the benchmark.
func heldBytes(ws []*workerState) int64 {
	var n int64
	for _, s := range ws {
		for k := range s.lat {
			n += int64(cap(s.lat[k]))*8 + int64(cap(s.sub[k]))
		}
		n += int64(cap(s.readAfterWrite)) * 8
		n += int64(cap(s.writes)+cap(s.checks)+cap(s.batches)) * int64(unsafe.Sizeof(workload.Op{}))
	}
	return n
}
