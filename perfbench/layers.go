package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"reachac/internal/core"
	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/httpapi"
	"reachac/internal/pathexpr"
	"reachac/internal/planner"
	"reachac/internal/search"
	"reachac/internal/wal"
	"reachac/internal/workload"
)

// Replay sizes: enough calls for stable medians, few enough that a traced
// run stays within its time budget.
const (
	replayChecks    = 5000
	replayBatches   = 2000
	replayDeltas    = 5000
	replayAppends   = 400
	replayAudiences = 32
)

// replayLayers times single layers on the inputs the run recorded, by
// calling each layer's public functions from the benchmark: the graph's
// clone and delta apply, the search engine, the audience and decision
// caches, the WAL and the wire codec. Results go into m.
func replayLayers(o options, st *stack, ws []*workerState, m map[string]float64) error {
	g0, err := generate.Build(st.top)
	if err != nil {
		return err
	}
	var clones []time.Duration
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		g0.Clone().BuildCSR()
		clones = append(clones, time.Since(t0))
	}
	m["graph.clone_csr_ms"] = medianSeconds(clones) * 1e3

	var checks, batches, writes []workload.Op
	for _, s := range ws {
		checks = append(checks, s.checks...)
		batches = append(batches, s.batches...)
		writes = append(writes, s.writes...)
	}
	checks = spread(checks, replayChecks)
	batches = spread(batches, replayBatches)
	paths := make([]*pathexpr.Path, len(st.specs))
	for i, spec := range st.specs {
		if paths[i], err = pathexpr.Parse(spec.Paths[0]); err != nil {
			return err
		}
	}

	// Search: the flat product-BFS and its endpoint cost model, on the
	// loaded graph with its CSR built.
	g0.BuildCSR()
	e := search.New(g0)
	var reach, route []int64
	for _, op := range checks {
		owner, p := st.specs[op.Resource].Owner, paths[op.Resource]
		t0 := time.Now()
		if _, err := e.Reachable(owner, op.Requester, p); err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := e.RouteCosts(owner, op.Requester, p); err != nil {
			return err
		}
		reach = append(reach, int64(t1.Sub(t0)))
		route = append(route, int64(time.Since(t1)))
	}
	m["search.reachable_p50_us"] = quantile(reach, 0.5)
	m["search.reachable_p99_us"] = quantile(reach, 0.99)
	m["search.route_costs_us"] = quantile(route, 0.5)

	// Audience cache: cold audiences, then graph deltas applied one at a
	// time with the cache advanced after each.
	ga := g0.Clone()
	ga.BuildCSR()
	ac := search.NewAudienceCache(ga)
	var cold []int64
	for i, spec := range st.specs[:min(len(st.specs), replayAudiences)] {
		t0 := time.Now()
		if _, err := ac.Audience(spec.Owner, paths[i]); err != nil {
			return err
		}
		cold = append(cold, int64(time.Since(t0)))
	}
	m["search.audience_cold_us"] = quantile(cold, 0.5)
	var apply, advance []int64
	for _, d := range graphDeltas(writes, replayDeltas) {
		t0 := time.Now()
		if err := ga.Apply(d); err != nil {
			return fmt.Errorf("replaying %s %d->%d: %w", d.Op, d.From, d.To, err)
		}
		t1 := time.Now()
		ac.Advance([]graph.Delta{d})
		apply = append(apply, int64(t1.Sub(t0)))
		advance = append(advance, int64(time.Since(t1)))
	}
	m["graph.apply_delta_us"] = quantile(apply, 0.5)
	m["search.audience_advance_us"] = quantile(advance, 0.5)

	// Decision cache: the hit path, timed over whole passes because one
	// lookup is shorter than the clock's resolution.
	if len(checks) > 0 {
		dc := planner.NewDecisionCache(func(core.ResourceID) []string { return nil }, nil)
		keys := make([]core.ResourceID, len(checks))
		for i, op := range checks {
			keys[i] = core.ResourceID(st.specs[op.Resource].Name)
			dc.Put(keys[i], op.Requester, core.Decision{Resource: keys[i], Requester: op.Requester})
		}
		var passes []time.Duration
		for pass := 0; pass < 5; pass++ {
			t0 := time.Now()
			for i, op := range checks {
				dc.Get(keys[i], op.Requester)
			}
			passes = append(passes, time.Since(t0)/time.Duration(len(checks)))
		}
		m["planner.dcache_get_us"] = medianSeconds(passes) * 1e6
	}

	if err := replayWAL(o, st, writes, m); err != nil {
		return err
	}

	// Wire codec: a check-batch request and its response, each encoded and
	// decoded as client and server do.
	var codec []int64
	for _, op := range batches {
		req := httpapi.CheckBatchRequest{Resource: st.specs[op.Resource].Name, Requesters: names(op.Requesters)}
		resp := httpapi.CheckBatchResponse{Decisions: make([]httpapi.Decision, len(req.Requesters))}
		for i, r := range req.Requesters {
			resp.Decisions[i] = httpapi.Decision{Resource: req.Resource, Requester: r, Effect: "deny"}
		}
		t0 := time.Now()
		var req2 httpapi.CheckBatchRequest
		var resp2 httpapi.CheckBatchResponse
		b, err := json.Marshal(req)
		if err == nil {
			err = json.Unmarshal(b, &req2)
		}
		if err == nil {
			b, err = json.Marshal(resp)
		}
		if err == nil {
			err = json.Unmarshal(b, &resp2)
		}
		if err != nil {
			return err
		}
		codec = append(codec, int64(time.Since(t0)))
	}
	m["httpapi.codec_us"] = quantile(codec, 0.5)
	return nil
}

// replayWAL appends the recorded writes, one record group each, to a fresh
// fsync-always log in the benchmark's data directory.
func replayWAL(o options, st *stack, writes []workload.Op, m map[string]float64) error {
	writes = writes[:min(len(writes), replayAppends)]
	if len(writes) == 0 {
		return nil
	}
	root := filepath.Join(o.dir, "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "wal-replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	l, _, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	before := l.Size()
	var appends []int64
	for i, op := range writes {
		rec := walOp(st, op, fmt.Sprintf("replay-%d", i))
		t0 := time.Now()
		if err := l.Append([]wal.Op{rec}); err != nil {
			l.Close()
			return err
		}
		appends = append(appends, int64(time.Since(t0)))
	}
	m["wal.bytes_per_write"] = float64(l.Size()-before) / float64(len(writes))
	m["wal.append_p50_us"] = quantile(appends, 0.5)
	m["wal.append_p99_us"] = quantile(appends, 0.99)
	return l.Close()
}

// walOp is the log record a write produces.
func walOp(st *stack, op workload.Op, rule string) wal.Op {
	spec := st.specs[op.Resource]
	switch op.Kind {
	case workload.OpShare:
		return wal.ShareOp(spec.Name, op.Owner, rule, op.Paths)
	case workload.OpRevoke:
		return wal.RevokeOp(spec.Name, rule)
	}
	d, _ := graphDelta(op)
	return wal.GraphOp(d)
}

func graphDelta(op workload.Op) (graph.Delta, bool) {
	switch op.Kind {
	case workload.OpRelate:
		return graph.Delta{Op: graph.OpAddEdge, From: op.From, To: op.To, Label: op.RelType}, true
	case workload.OpUnrelate:
		return graph.Delta{Op: graph.OpRemoveEdge, From: op.From, To: op.To, Label: op.RelType}, true
	}
	return graph.Delta{}, false
}

// graphDeltas lists the edge changes among writes, in order, up to limit.
// Each worker toggles only its own edges, so the concatenated per-worker
// sequences replay cleanly onto the loaded graph.
func graphDeltas(writes []workload.Op, limit int) []graph.Delta {
	var out []graph.Delta
	for _, op := range writes {
		if d, ok := graphDelta(op); ok && len(out) < limit {
			out = append(out, d)
		}
	}
	return out
}

// spread keeps at most n of ops, evenly spaced across the recording.
func spread(ops []workload.Op, n int) []workload.Op {
	if len(ops) <= n {
		return ops
	}
	out := make([]workload.Op, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ops[i*len(ops)/n])
	}
	return slices.Clip(out)
}
