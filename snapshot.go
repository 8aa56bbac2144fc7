package reachac

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"reachac/internal/core"
	"reachac/internal/graph"
	"reachac/internal/joinindex"
	"reachac/internal/planner"
	"reachac/internal/search"
	"reachac/internal/tclosure"
)

// snapshot is one immutable engine generation: a private clone of the social
// graph, an evaluator built over it, a frozen policy view, and a decision
// cache. Once published via Network.snap it is never mutated (the cache is
// internally synchronized), so any number of readers may use it with no
// coordination while mutators prepare the next generation.
type snapshot struct {
	// g is a private clone of the master graph; nothing mutates it after
	// the snapshot is built, so evaluators may traverse it lock-free.
	g    *graph.Graph
	kind EngineKind
	// eval is the raw primary evaluator of the selected kind; delta advances
	// (core.IncrementalEvaluator) talk to it directly.
	eval Evaluator
	// reval is the evaluator reads run on: the planner's routed wrapper when
	// routing is enabled (see routedEval), otherwise eval itself.
	reval Evaluator
	// store is the frozen policy view (a Store clone); engine decides
	// against it, so concurrent Share/Revoke cannot change the rules a
	// reader observes mid-decision.
	store  *core.Store
	engine *core.Engine
	// aud caches audience sets over g, maintained incrementally across
	// delta advances (see search.AudienceCache). It is shared exactly as
	// far as g is: policy-only republications reuse it, a delta advance
	// carries it forward via Advance, and a full rebuild starts it fresh.
	aud *search.AudienceCache
	// version is the master graph's Version at clone time; src and gen
	// identify the live policy store and its Generation at clone time.
	// The snapshot is current exactly while all three still match.
	version uint64
	src     *core.Store
	gen     uint64
	// dcache memoizes decisions per (resource, requester) with per-delta
	// label-tagged invalidation (see planner.DecisionCache). Unlike its
	// drop-wholesale predecessor it survives graph mutations: a delta
	// advance carries it to the next snapshot, evicting only the entries
	// whose label tags intersect the delta. A policy change (different
	// store generation) starts a fresh cache, because the tags themselves
	// derive from the rules.
	dcache *planner.DecisionCache
	// refs counts in-flight readers of the snapshot's graph clone. It is a
	// pointer because a policy-only republication shares the previous
	// snapshot's clone — the counter must then be shared too, so that a
	// later steal of either snapshot's clone (see advanceSpareLocked)
	// observes every reader of that graph.
	refs *atomic.Int64
	// retired is set (under Network.mu) once the snapshot has been
	// replaced by a newer publication. A reader that acquires a retired
	// snapshot backs off and reloads; combined with the refs count this
	// lets the publisher prove a retired clone is unobserved before
	// advancing it in place.
	retired atomic.Bool
}

// acquire pins s for one read operation. It must be balanced by release.
// The increment-then-check ordering closes the classic hazard window: if
// the publisher observed refs == 0 after setting retired, any reader
// incrementing later is guaranteed to observe retired and back off
// (sequentially consistent atomics), so a clone is only ever advanced in
// place when provably unobserved.
func (s *snapshot) acquire() bool {
	s.refs.Add(1)
	if s.retired.Load() {
		s.refs.Add(-1)
		return false
	}
	return true
}

// release unpins the snapshot after a read operation.
func (s *snapshot) release() { s.refs.Add(-1) }

// current reports whether the snapshot still reflects the live network
// state. The graph version and policy generation are both read from atomic
// counters, so this check is lock-free.
func (s *snapshot) current(g *graph.Graph, store *core.Store) bool {
	return s.version == g.Version() && s.src == store && s.gen == store.Generation()
}

// decide answers one access request against the snapshot, serving repeats
// from the decision cache. Cached hits do not re-enter the audit trail. A
// surviving entry (carried across a delta advance) preserves the decision's
// Effect; its RuleID/Reason may name a different rule than a fresh
// evaluation would (see planner.DecisionCache).
func (s *snapshot) decide(res core.ResourceID, requester UserID) (Decision, error) {
	if d, ok := s.dcache.Get(res, requester); ok {
		return d, nil
	}
	d, err := s.engine.Decide(res, requester)
	if err != nil {
		return Decision{}, err
	}
	s.dcache.Put(res, requester, d)
	return d, nil
}

// labelsForStore builds the decision cache's tag resolver over one frozen
// policy view: the union of label names the resource's rules constrain on.
// An unregistered resource resolves to an empty tag, so its "unknown
// resource" denial is never evicted by graph deltas (registration is a
// policy change, which starts a fresh cache anyway).
func labelsForStore(view *core.Store) func(core.ResourceID) []string {
	return func(res core.ResourceID) []string {
		var labels []string
		for _, r := range view.RulesFor(res) {
			for _, c := range r.Conditions {
			steps:
				for _, st := range c.Path.Steps {
					for _, l := range labels {
						if l == st.Label {
							continue steps
						}
					}
					labels = append(labels, st.Label)
				}
			}
		}
		return labels
	}
}

// buildEvaluator constructs the evaluator of the given kind over g, which
// must not be mutated afterwards. Online engines count their plan
// compilations into compiles.
func buildEvaluator(kind EngineKind, g *graph.Graph, compiles *atomic.Uint64) (Evaluator, error) {
	switch kind {
	case Online, OnlineDFS, OnlineAdaptive:
		e := search.New(g)
		e.DFS = kind == OnlineDFS
		e.Compiles = compiles
		if kind == OnlineAdaptive {
			return search.Adaptive{Engine: e}, nil
		}
		return e, nil
	case Closure:
		return tclosure.New(g), nil
	case Index:
		idx, err := joinindex.Build(g, joinindex.Options{})
		if err != nil {
			return nil, fmt.Errorf("reachac: building index: %w", err)
		}
		return idx, nil
	case IndexPaperJoin:
		idx, err := joinindex.Build(g, joinindex.Options{Strategy: joinindex.EvalPaperJoin})
		if err != nil {
			return nil, fmt.Errorf("reachac: building index: %w", err)
		}
		return idx, nil
	default:
		return nil, fmt.Errorf("reachac: unknown engine kind %d", int(kind))
	}
}

// newAudienceCache returns an empty audience cache over g whose engine
// counts plan compilations into the network's counter.
func (n *Network) newAudienceCache(g *graph.Graph) *search.AudienceCache {
	aud := search.NewAudienceCache(g)
	aud.Engine().Compiles = &n.ctr.planCompiles
	return aud
}

// snapshot returns the current engine snapshot pinned for one read
// operation (the caller must release it), publishing a fresh one if the
// graph or policies changed since the last publication. The fast path is
// two atomic loads, two atomic counter reads and one pin; only the first
// reader after a change pays for the republication.
func (n *Network) snapshot() (*snapshot, error) {
	for {
		s := n.snap.Load()
		if s == nil || !s.current(n.g, n.store.Load()) {
			break
		}
		if s.acquire() {
			return s, nil
		}
		// Retired under our feet: a newer snapshot is already published
		// (retirement happens only after the replacing Store), so the next
		// load observes it.
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	s, err := n.publishLocked()
	if err != nil {
		return nil, err
	}
	// Under mu a snapshot cannot retire, so this acquire never fails.
	s.acquire()
	return s, nil
}

// tombstone compaction thresholds: a full rebuild compacts the master's
// dead edges once at least compactMinDead of them make up over a fifth of
// the edge store, so long-lived networks stop cloning tombstones forever.
const compactMinDead = 64

// publishLocked builds and publishes a snapshot of the current master
// state. Callers must hold n.mu, which serializes it against mutators and
// concurrent publishers.
//
// Publication cost, cheapest first:
//
//  1. policy-only change — the previous snapshot's graph clone and
//     evaluator are reused (shared); only the policy view and decision
//     cache are refreshed;
//  2. delta advance — the retired spare snapshot's clone, once provably
//     unobserved, is fast-forwarded by replaying the master's delta log
//     (O(Δ)), and its evaluator advances in place when it implements
//     core.IncrementalEvaluator;
//  3. full rebuild — O(V+E) clone plus evaluator construction, the
//     pre-delta behavior and the fallback whenever the spare is still
//     referenced, the delta window was trimmed, or the evaluator declines
//     the batch.
func (n *Network) publishLocked() (*snapshot, error) {
	// Reassess the engine choice first. The recommendation is always
	// computed (it surfaces through Stats as observability); with
	// auto-migration enabled it also changes n.kind before the tier checks
	// below, so the migration rides the publication that observed it.
	if n.route {
		reads := n.ctr.checks.Load() + n.ctr.audiences.Load()
		muts := n.ctr.mutations.Load()
		if rec, ok := n.planner.Recommend(planner.Kind(n.kind), reads, muts); ok && n.autoMigrate {
			n.kind = EngineKind(rec)
			n.planner.Migrated(rec)
		}
	}
	store := n.store.Load()
	cur := n.snap.Load()
	if cur == nil || cur.version != n.g.Version() {
		// The graph changed, so every path republishes its clone anyway;
		// compact the master's tombstones first if they piled up (logged
		// as a delta, so a spare advance compacts its clone at the same
		// point in history).
		if dead := n.g.NumTombstones(); dead >= compactMinDead && dead*4 >= n.g.NumEdges() {
			n.g.CompactTombstones()
		}
	}
	// Read both counters before cloning: a mutation racing the clone then
	// at worst marks the new snapshot already stale (forcing one extra
	// rebuild), never lets it linger as current with missing state.
	gv, gen := n.g.Version(), store.Generation()
	if cur != nil && cur.version == gv && cur.src == store && cur.gen == gen && cur.kind == n.kind {
		return cur, nil
	}
	var (
		gc   *graph.Graph
		eval Evaluator
		aud  *search.AudienceCache
		dc   *planner.DecisionCache
		refs *atomic.Int64
	)
	if cur != nil && cur.version == gv && cur.kind == n.kind {
		// Policy-only change: share the clone, evaluator, audience cache
		// and reader count. The decision cache starts fresh — its label
		// tags derive from the rules that just changed.
		gc, eval, aud, refs = cur.g, cur.eval, cur.aud, cur.refs
	} else if agc, aeval, aaud, adc := n.advanceSpareLocked(cur, store, gen); agc != nil {
		gc, eval, aud, dc = agc, aeval, aaud, adc
	}
	if gc == nil {
		gc = n.g.Clone()
		// Private clones never serve ChangesSince (the master's log drives
		// every advance), so don't let delta replays accumulate in them.
		gc.SetDeltaLogLimit(-1)
		// Build the CSR adjacency eagerly: the full-rebuild path already
		// pays O(V+E), and a fresh CSR makes every query on the snapshot
		// run the dense read path from the first call.
		gc.CSR()
		var err error
		eval, err = buildEvaluator(n.kind, gc, &n.ctr.planCompiles)
		if err != nil {
			return nil, err
		}
		aud = n.newAudienceCache(gc)
	}
	if refs == nil {
		refs = new(atomic.Int64)
	}
	view := store.Freeze()
	if dc == nil {
		dc = planner.NewDecisionCache(labelsForStore(view), n.planner.CacheCounters())
	}
	// The routed wrapper is rebuilt per publication (it is a tiny struct):
	// the primary evaluator or audience cache underneath may have changed.
	reval := eval
	if n.route {
		reval = &routedEval{
			pl:      n.planner,
			primary: eval,
			online:  aud.Engine(),
			aud:     aud,
			kind:    planner.Kind(n.kind),
		}
	}
	s := &snapshot{
		g:       gc,
		kind:    n.kind,
		eval:    eval,
		reval:   reval,
		aud:     aud,
		store:   view,
		engine:  core.NewEngineWithLog(view, reval, n.audit),
		dcache:  dc,
		version: gv,
		src:     store,
		gen:     gen,
		refs:    refs,
	}
	n.ctr.republications.Add(1)
	old := n.snap.Swap(s)
	if old != nil && old != s {
		old.retired.Store(true)
		if old.g != s.g {
			// The outgoing snapshot's clone is not the one just published,
			// so once its readers drain it becomes the next advance
			// candidate. (After a policy-only share the clones are equal
			// and the older spare, if any, stays on deck instead.)
			n.spare = old
		}
	}
	return s, nil
}

// advanceSpareLocked tries to satisfy a publication by fast-forwarding the
// retired spare snapshot's private clone to the master's current version —
// replaying the bounded delta log at O(Δ) instead of paying the O(V+E)
// re-clone — and advancing its evaluator, audience cache and decision cache
// in place when possible. store and gen identify the policy state being
// published: the decision cache is carried forward only when the spare was
// built against the same policy generation (its label tags derive from the
// rules). It returns nils when no spare is stealable: none exists, readers
// still hold it, or the delta window has been trimmed past its version.
// Callers must hold n.mu.
func (n *Network) advanceSpareLocked(cur *snapshot, store *core.Store, gen uint64) (*graph.Graph, Evaluator, *search.AudienceCache, *planner.DecisionCache) {
	spare := n.spare
	if spare == nil {
		return nil, nil, nil, nil
	}
	if cur != nil && cur.g == spare.g {
		// Defensive: never advance a clone the published snapshot shares.
		n.spare = nil
		return nil, nil, nil, nil
	}
	if spare.refs.Load() != 0 {
		// A reader still traverses the clone; keep the spare for a later
		// publication and fall back to a full rebuild now.
		return nil, nil, nil, nil
	}
	deltas, ok := n.g.ChangesSince(spare.version)
	if !ok {
		// The window no longer reaches back; the spare can only fall
		// further behind, so drop it.
		n.spare = nil
		return nil, nil, nil, nil
	}
	// The spare is consumed either way: on any failure below its clone is
	// partially advanced and must never be reused.
	n.spare = nil
	gc := spare.g
	for _, d := range deltas {
		if err := gc.Apply(d); err != nil {
			return nil, nil, nil, nil
		}
	}
	// The clone is fully advanced, so the caches can follow it
	// incrementally; the spare being unobserved guarantees the quiescence
	// Advance requires.
	aud := spare.aud
	if aud == nil {
		aud = n.newAudienceCache(gc)
	} else {
		aud.Advance(deltas)
	}
	// Carry the warm decision cache iff the policy is unchanged since the
	// spare was built: Advance evicts exactly the entries the delta batch
	// could have flipped, so everything else keeps serving.
	var dc *planner.DecisionCache
	if spare.dcache != nil && spare.src == store && spare.gen == gen {
		dc = spare.dcache
		dc.Advance(deltas)
	}
	if spare.kind == n.kind {
		if inc, isInc := spare.eval.(core.IncrementalEvaluator); isInc && inc.ApplyDelta(gc, deltas) {
			return gc, spare.eval, aud, dc
		}
	}
	// Evaluator declined (or the engine kind changed): the advanced clone
	// is still sound, rebuild only the evaluator over it.
	eval, err := buildEvaluator(n.kind, gc, &n.ctr.planCompiles)
	if err != nil {
		return nil, nil, nil, nil
	}
	return gc, eval, aud, dc
}

// CanAccessAll decides access to one resource for many requesters in a
// single call, fanning the checks out across a worker pool. All decisions
// are made against one engine snapshot, so the result is a consistent view
// even if mutations land mid-batch. The returned slice is index-aligned
// with requesters. On any evaluation error the batch is abandoned and the
// first error is returned.
func (n *Network) CanAccessAll(resource string, requesters []UserID) ([]Decision, error) {
	s, err := n.snapshot()
	if err != nil {
		return nil, err
	}
	defer s.release()
	n.ctr.batchChecks.Add(1)
	n.ctr.checks.Add(uint64(len(requesters)))
	return s.decideAll(core.ResourceID(resource), requesters)
}

// decideAll is CanAccessAll's body over an already-pinned snapshot, shared
// with View.CanAccessAll.
func (s *snapshot) decideAll(res core.ResourceID, requesters []UserID) ([]Decision, error) {
	var err error
	out := make([]Decision, len(requesters))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(requesters) {
		workers = len(requesters)
	}
	if workers <= 1 {
		for i, r := range requesters {
			if out[i], err = s.decide(res, r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var (
		next    atomic.Int64
		failed  atomic.Bool
		errOnce sync.Once
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= len(requesters) {
					return
				}
				d, derr := s.decide(res, requesters[i])
				if derr != nil {
					errOnce.Do(func() { err = derr })
					failed.Store(true)
					return
				}
				out[i] = d
			}
		}()
	}
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return out, nil
}
