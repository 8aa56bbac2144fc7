package main

import (
	"context"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"time"

	"reachac"
	"reachac/client"
	"reachac/internal/graph"
	"reachac/internal/httpapi"
	"reachac/internal/loadgen"
	"reachac/internal/workload"
)

const (
	// numKinds covers every workload.OpKind.
	numKinds = int(workload.OpRevoke) + 1
	// digestOps is how many leading operations of each worker's stream
	// the input digest covers.
	digestOps = 4096
	// subWindows is how many equal parts a window is split into; the
	// end-to-end metrics are medians over the parts, so one disturbed
	// stretch of a run does not move them.
	subWindows = 5
	// replayCap bounds the checks and batches a traced window records for
	// the per-layer replays; writeCap bounds the writes every run records.
	replayCap = 20_000
	writeCap  = 200_000
)

func isWrite(k workload.OpKind) bool {
	switch k {
	case workload.OpRelate, workload.OpUnrelate, workload.OpShare, workload.OpRevoke:
		return true
	}
	return false
}

// kindCounts is the failure accounting of one operation kind.
type kindCounts struct {
	attempted, ok, errs, shed uint64
}

// workerState is one closed-loop worker: its generator, its accounting and
// what it recorded for the per-layer replays. Only its own worker touches
// it while a window runs.
type workerState struct {
	gen    *workload.Generator
	counts [numKinds]kindCounts
	// lat holds the latencies of successful operations, in nanoseconds.
	lat [numKinds][]int64
	// readAfterWrite holds the latencies of checks that directly follow
	// this worker's own successful write.
	readAfterWrite []int64
	afterWrite     bool
	// sub holds, parallel to lat, the sub-window each sample ended in.
	sub [numKinds][]uint8

	streamOps uint64
	digest    uint64
	hash      hash.Hash64

	// writes lists every successful write since the stack was set up, in
	// order; checks and batches are recorded only while recordReads.
	writes      []workload.Op
	checks      []workload.Op
	batches     []workload.Op
	recordReads bool
}

func newWorkerStates(gens []*workload.Generator) []*workerState {
	ws := make([]*workerState, len(gens))
	for i, g := range gens {
		ws[i] = &workerState{gen: g, hash: fnv.New64a()}
	}
	return ws
}

// hashOp folds the operation into the worker's input digest until
// digestOps operations are covered.
func (s *workerState) hashOp(op workload.Op) {
	s.streamOps++
	if s.streamOps > digestOps {
		return
	}
	fmt.Fprintf(s.hash, "%d|%d|%d|%v|%d|%d|%d|%s|%v\n", op.Kind, op.Resource, op.Requester,
		op.Requesters, op.Owner, op.From, op.To, op.RelType, op.Paths)
	s.digest = s.hash.Sum64()
}

// account records one operation; sub is the sub-window it ended in, or
// -1 during the warm-up.
func (s *workerState) account(op workload.Op, out loadgen.Outcome, d time.Duration, sub int) {
	wrote := isWrite(op.Kind) && out == loadgen.OK
	if wrote && len(s.writes) < writeCap {
		s.writes = append(s.writes, op)
	}
	if sub >= 0 {
		k := &s.counts[op.Kind]
		k.attempted++
		switch out {
		case loadgen.OK:
			k.ok++
			s.lat[op.Kind] = append(s.lat[op.Kind], int64(d))
			s.sub[op.Kind] = append(s.sub[op.Kind], uint8(sub))
			if op.Kind == workload.OpCheck && s.afterWrite {
				s.readAfterWrite = append(s.readAfterWrite, int64(d))
			}
		case loadgen.Shed:
			k.shed++
		default:
			k.errs++
		}
		if s.recordReads && out == loadgen.OK {
			switch {
			case op.Kind == workload.OpCheck && len(s.checks) < replayCap:
				s.checks = append(s.checks, op)
			case op.Kind == workload.OpCheckBatch && len(s.batches) < replayCap:
				s.batches = append(s.batches, op)
			}
		}
	}
	s.afterWrite = wrote
}

// window is the outcome of one measured window.
type window struct {
	elapsed        time.Duration
	counts         [numKinds]kindCounts
	lat            [numKinds][]int64
	sub            [numKinds][]uint8
	readAfterWrite []int64
	stats          reachac.Stats
	server         httpapi.ServerStats
	gc             gcStats
	// heapMB is the live heap after a forced collection at the end of the
	// window, less the benchmark's own recordings.
	heapMB float64
	// steal is the share of the host's CPU time its hypervisor gave to
	// other tenants during the window.
	steal float64
}

func (w *window) total() kindCounts {
	var t kindCounts
	for _, c := range w.counts {
		t.attempted += c.attempted
		t.ok += c.ok
		t.errs += c.errs
		t.shed += c.shed
	}
	return t
}

func (w *window) opsPerSec() float64 { return float64(w.total().ok) / w.elapsed.Seconds() }

// perSub splits the window into its sub-windows and applies f to each
// part's successful-operation count and its check latencies.
func (w *window) perSub(f func(ok int, checks []int64) float64) []float64 {
	var ok [subWindows]int
	var checks [subWindows][]int64
	for k := range w.sub {
		for i, sub := range w.sub[k] {
			ok[sub]++
			if k == int(workload.OpCheck) {
				checks[sub] = append(checks[sub], w.lat[k][i])
			}
		}
	}
	out := make([]float64, subWindows)
	for i := range out {
		out[i] = f(ok[i], checks[i])
	}
	return out
}

// latencies merges the latency samples of the given kinds.
func (w *window) latencies(kinds ...workload.OpKind) []int64 {
	var out []int64
	for _, k := range kinds {
		out = append(out, w.lat[k]...)
	}
	return out
}

// runWindow drives the stack in a closed loop, one goroutine per worker,
// for warmup plus dur, and accounts for the operations that end after the
// warm-up. With a tracer, one operation in tr.every is traced.
func runWindow(st *stack, ws []*workerState, warmup, dur time.Duration, tr *tracer) (*window, error) {
	for _, s := range ws {
		s.counts = [numKinds]kindCounts{}
		s.lat = [numKinds][]int64{}
		s.sub = [numKinds][]uint8{}
		s.readAfterWrite = nil
		s.recordReads = tr != nil
	}
	if st.handler != nil {
		st.handler.tr.Store(tr)
		defer st.handler.tr.Store(nil)
	}
	before, beforeSrv, err := st.stats()
	if err != nil {
		return nil, err
	}
	gcBefore := readGC()
	stealBefore, totalBefore := cpuTicks()
	measureStart := time.Now().Add(warmup)
	res := loadgen.Run(context.Background(), loadgen.Config{
		Workers:  len(ws),
		Duration: dur,
		Warmup:   warmup,
		Classify: st.classify,
	}, func(ctx context.Context, worker int) error {
		s := ws[worker]
		op := s.gen.Next()
		s.hashOp(op)
		var sc *spanCtx
		finish := func() {}
		if tr != nil && s.streamOps%tr.every == 0 {
			sc, finish = tr.root(worker, "op."+op.Kind.String())
		}
		t0 := time.Now()
		err := st.do(ctx, sc, worker, op)
		d := time.Since(t0)
		finish()
		sub := -1
		if done := t0.Add(d); !done.Before(measureStart) {
			sub = min(subWindows-1, int(done.Sub(measureStart)*subWindows/dur))
		}
		s.account(op, st.classify(err), d, sub)
		if err != nil && !errors.Is(err, client.ErrOverloaded) {
			fmt.Fprintf(os.Stderr, "perfbench: %s failed: %v\n", op.Kind, err)
		}
		return err
	})
	gcAfter := readGC()
	stealAfter, totalAfter := cpuTicks()
	heapMB := liveHeapMB(heldBytes(ws))
	after, afterSrv, err := st.stats()
	if err != nil {
		return nil, err
	}
	w := &window{
		elapsed: res.Elapsed,
		stats:   after.Delta(before),
		server:  serverDelta(afterSrv, beforeSrv),
		gc:      gcAfter.since(gcBefore),
		steal:   ratio(float64(stealAfter-stealBefore), float64(totalAfter-totalBefore)),
		heapMB:  heapMB,
	}
	for _, s := range ws {
		for k := range s.counts {
			c := s.counts[k]
			w.counts[k].attempted += c.attempted
			w.counts[k].ok += c.ok
			w.counts[k].errs += c.errs
			w.counts[k].shed += c.shed
			w.lat[k] = append(w.lat[k], s.lat[k]...)
			w.sub[k] = append(w.sub[k], s.sub[k]...)
		}
		w.readAfterWrite = append(w.readAfterWrite, s.readAfterWrite...)
	}
	return w, nil
}

func serverDelta(a, b httpapi.ServerStats) httpapi.ServerStats {
	return httpapi.ServerStats{
		CommitGroups:       a.CommitGroups - b.CommitGroups,
		CoalescedMutations: a.CoalescedMutations - b.CoalescedMutations,
		QueueRejected:      a.QueueRejected - b.QueueRejected,
		CheckRejected:      a.CheckRejected - b.CheckRejected,
	}
}

// stats reads the engine counters, and over HTTP the server's too.
func (st *stack) stats() (reachac.Stats, httpapi.ServerStats, error) {
	if st.plain == nil {
		return st.net.Stats(), httpapi.ServerStats{}, nil
	}
	s, err := st.plain.Stats(context.Background())
	if err != nil {
		return reachac.Stats{}, httpapi.ServerStats{}, fmt.Errorf("reading server stats: %w", err)
	}
	return s.Stats, s.Server, nil
}

// classify maps an operation's error to its outcome: a shed (503) or
// timed-out request is shed, anything else an error.
func (st *stack) classify(err error) loadgen.Outcome {
	switch {
	case err == nil:
		return loadgen.OK
	case errors.Is(err, client.ErrOverloaded), errors.Is(err, context.DeadlineExceeded), os.IsTimeout(err):
		return loadgen.Shed
	default:
		return loadgen.Error
	}
}

// do executes one generated operation through the workload's serving path.
func (st *stack) do(ctx context.Context, sc *spanCtx, worker int, op workload.Op) error {
	if st.plain != nil {
		return st.doHTTP(ctx, sc, worker, op)
	}
	spec := st.specs[op.Resource]
	_, finish := sc.child("reachac." + op.Kind.String())
	defer finish()
	n := st.net
	switch op.Kind {
	case workload.OpCheck:
		_, err := n.CanAccess(spec.Name, op.Requester)
		return err
	case workload.OpCheckBatch:
		_, err := n.CanAccessAll(spec.Name, op.Requesters)
		return err
	case workload.OpAudience:
		_, err := n.Audience(spec.Name)
		return err
	case workload.OpRelate:
		return n.Relate(op.From, op.To, op.RelType)
	case workload.OpUnrelate:
		return n.Unrelate(op.From, op.To, op.RelType)
	case workload.OpShare:
		rule, err := n.Share(spec.Name, op.Owner, op.Paths...)
		if err == nil {
			st.pushRule(worker, op.Resource, rule)
		}
		return err
	case workload.OpRevoke:
		rule, ok := st.popRule(worker, op.Resource)
		if !ok {
			return fmt.Errorf("revoke on %s without an outstanding share", spec.Name)
		}
		n.Revoke(spec.Name, rule)
		return nil
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

func (st *stack) doHTTP(ctx context.Context, sc *spanCtx, worker int, op workload.Op) error {
	spec := st.specs[op.Resource]
	inner, finish := sc.child("client." + op.Kind.String())
	defer finish()
	c := st.plain
	if inner != nil {
		c = st.traced
		ctx = withSpan(ctx, inner)
	}
	switch op.Kind {
	case workload.OpCheck:
		_, err := c.Check(ctx, spec.Name, name(op.Requester))
		return err
	case workload.OpCheckBatch:
		_, err := c.CheckBatch(ctx, spec.Name, names(op.Requesters))
		return err
	case workload.OpAudience:
		_, err := c.Audience(ctx, spec.Name)
		return err
	case workload.OpRelate:
		return c.Relate(ctx, name(op.From), name(op.To), op.RelType)
	case workload.OpUnrelate:
		return c.Unrelate(ctx, name(op.From), name(op.To), op.RelType)
	case workload.OpShare:
		rule, err := c.Share(ctx, spec.Name, name(op.Owner), op.Paths...)
		if err == nil {
			st.pushRule(worker, op.Resource, rule)
		}
		return err
	case workload.OpRevoke:
		rule, ok := st.popRule(worker, op.Resource)
		if !ok {
			return fmt.Errorf("revoke on %s without an outstanding share", spec.Name)
		}
		_, err := c.Revoke(ctx, spec.Name, rule)
		return err
	}
	return fmt.Errorf("unknown op kind %v", op.Kind)
}

func names(ids []graph.NodeID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = name(id)
	}
	return out
}

func (st *stack) pushRule(worker, resource int, rule string) {
	st.rules[worker][resource] = append(st.rules[worker][resource], rule)
}

func (st *stack) popRule(worker, resource int) (string, bool) {
	q := st.rules[worker][resource]
	if len(q) == 0 {
		return "", false
	}
	st.rules[worker][resource] = q[1:]
	return q[0], true
}
