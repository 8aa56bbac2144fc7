package search

import (
	"sync"
	"sync/atomic"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file is the allocation-free fast path behind Reachable and
// AudienceSet. The product search space (node, step, depth-key) is mapped to
// a dense integer range — node*states + stepBase[step] + d — so the visited
// set is a flat bitset instead of a map, the frontier is a reusable slice of
// packed uint64 states, and both live in a sync.Pool scratch that queries
// borrow. Adjacency comes from the graph's label-partitioned CSR slabs when
// fresh (see graph.CSR); otherwise the edge-list iteration is used and its
// cost is fed back as CSR debt so read-heavy phases converge to the CSR.
//
// Scratch-zero invariant: a pooled scratch.visited is all-zero over its
// whole capacity whenever it sits in the pool. A query therefore reslices it
// to its own V·S words without clearing, and afterwards clears only what it
// set: every visited state is marked exactly when it is enqueued, so the
// frontier lists every set bit, and zeroing the word of each frontier state
// restores the invariant in time proportional to the states visited rather
// than to V·S (or a plain full clear when the frontier is longer than the
// bitset). member, the audience bitset, is cleared in full on borrow
// instead, because appendBits walks all of it anyway.

// compiled is a path compiled against a graph plus the dense state layout
// derived from it. Engines cache compiled plans per *pathexpr.Path, so the
// per-query compile cost (and its allocations) is paid once per rule.
type compiled struct {
	steps    []compiledStep
	stepBase []int32
	// states is the per-node state count S: state (node, step, d) maps to
	// bit node*S + stepBase[step] + d.
	states int32
	// labelsLen is the graph's label count at compile time; a grown label
	// table invalidates the plan (a previously-absent label may now exist).
	labelsLen int
	// anyMissing is true when some step's label does not occur in the graph,
	// so no path can match.
	anyMissing bool
	// str is the canonical path text, cached for audience-cache keys.
	str string
	// reverse caches the compiled reversal of the path for reverse-endpoint
	// execution (route.go), built on first use, so the reversal and its
	// compile are paid once per plan rather than per query and take no
	// plan-cache slot of their own.
	reverse atomic.Pointer[reversedPlan]
	// used marks a plan served since the last plan-cache sweep.
	used atomic.Bool
}

// reversedPlan is pathexpr.Reverse of a plan's path with its compiled form.
type reversedPlan struct {
	path  *pathexpr.Path
	preds []pathexpr.Pred
	c     *compiled
}

// maxFlatStates bounds node*states products (in bits) served by the flat
// path; beyond it the map-based search takes over. 2^31 bits = 256 MiB of
// visited bitset, far above any realistic policy.
const maxFlatStates = int64(1) << 31

// newCompiled compiles p against g and lays out the dense state space.
func (e *Engine) newCompiled(p *pathexpr.Path) (*compiled, error) {
	steps, err := compile(e.g, p)
	if err != nil {
		return nil, err
	}
	if e.Compiles != nil {
		e.Compiles.Add(1)
	}
	c := &compiled{
		steps:     steps,
		stepBase:  make([]int32, len(steps)),
		labelsLen: e.g.NumLabels(),
		str:       p.String(),
	}
	c.used.Store(true)
	var s int32
	for i := range steps {
		c.stepBase[i] = s
		dCap := steps[i].max
		if steps[i].unbounded {
			dCap = steps[i].min
		}
		s += int32(dCap) + 1
		if !steps[i].labelOK {
			c.anyMissing = true
		}
	}
	c.states = s
	return c, nil
}

// minPlanSweep is the least number of plans the cache grows by between
// sweeps. A sweep runs once the cache holds more than the survivors of the
// previous sweep plus max(minPlanSweep, half of them), and drops every plan
// not served since that sweep. Rule paths in use therefore stay compiled
// however many there are, while a per-call parsed path (CheckPath,
// PathAudience) survives at most one sweep. The cache stays within about
// three times the working set plus minPlanSweep, and each sweep's cost is
// amortized over at least half as many inserts as plans it keeps.
const minPlanSweep = 1024

// plan returns the cached compiled form of p, compiling (and caching) it on
// first use or after the graph's label table has grown.
func (e *Engine) plan(p *pathexpr.Path) (*compiled, error) {
	if v, ok := e.plans.Load(p); ok {
		c := v.(*compiled)
		if c.labelsLen == e.g.NumLabels() {
			// Write the flag only when unset, so a hot plan's cache line
			// stays shared across cores.
			if !c.used.Load() {
				c.used.Store(true)
			}
			return c, nil
		}
	}
	c, err := e.newCompiled(p)
	if err != nil {
		return nil, err
	}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if _, replaced := e.plans.Swap(p, c); replaced {
		return c, nil
	}
	e.planCount++
	if e.planCount > e.planKept+max(minPlanSweep, e.planKept/2) {
		e.plans.Range(func(k, v any) bool {
			if !v.(*compiled).used.Swap(false) {
				e.plans.Delete(k)
				e.planCount--
			}
			return true
		})
		e.planKept = e.planCount
	}
	return c, nil
}

// reversePlan returns the compiled reversal of c's path (see
// pathexpr.Reverse), building it on first use. Racing first uses may both
// compile; either result is correct.
func (e *Engine) reversePlan(c *compiled, p *pathexpr.Path) (*reversedPlan, error) {
	if r := c.reverse.Load(); r != nil {
		return r, nil
	}
	rev, preds := pathexpr.Reverse(p)
	rc, err := e.newCompiled(rev)
	if err != nil {
		return nil, err
	}
	r := &reversedPlan{path: rev, preds: preds, c: rc}
	c.reverse.Store(r)
	return r, nil
}

// scratch is the pooled per-query working set of a flat search.
type scratch struct {
	visited  []uint64
	member   []uint64
	frontier []uint64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// bitset returns b resized to words entries with every entry zeroed.
func bitset(b []uint64, words int) []uint64 {
	b = zeroBitset(b, words)
	clear(b)
	return b
}

// zeroBitset returns b resized to words entries, relying on the
// scratch-zero invariant (see the file comment) for their contents.
func zeroBitset(b []uint64, words int) []uint64 {
	if cap(b) < words {
		return make([]uint64, words)
	}
	return b[:words]
}

// clearVisited restores the scratch-zero invariant of visited after a
// search whose enqueued states are exactly frontier.
func clearVisited(c *compiled, visited []uint64, frontier []uint64) {
	if len(frontier) >= len(visited) {
		clear(visited)
		return
	}
	S := uint64(c.states)
	for _, packed := range frontier {
		bit := (packed>>32)*S + uint64(c.stepBase[uint16(packed>>16)]) + uint64(uint16(packed))
		visited[bit>>6] = 0
	}
}

// packState packs (node, step, d) into one frontier word.
func packState(node graph.NodeID, step, d int32) uint64 {
	return uint64(node)<<32 | uint64(uint16(step))<<16 | uint64(uint16(d))
}

// flatOK reports whether the flat path can serve a query over V nodes.
func (c *compiled) flatOK(v int) bool {
	return len(c.steps) < 1<<16 && int64(v)*int64(c.states) <= maxFlatStates
}

// runFlat runs the product BFS from the already-marked states in frontier
// until exhaustion (or until target is reached when collect is false).
// visited and member are caller-owned bitsets indexed by the compiled state
// layout (member by node ID); frontier's backing array is reused and the
// possibly-grown slice is returned. The work result counts edge scans, for
// CSR-debt accounting. runFlat performs no allocations beyond frontier
// growth.
func (e *Engine) runFlat(c *compiled, visited, member []uint64, frontier []uint64,
	target graph.NodeID, collect bool) (found bool, frontierOut []uint64, work int) {
	g := e.g
	csr := g.FreshCSR()
	S := c.states
	last := int32(len(c.steps) - 1)
	for head := 0; head < len(frontier); head++ {
		packed := frontier[head]
		node := graph.NodeID(packed >> 32)
		step := int32(uint16(packed >> 16))
		d := int32(uint16(packed))
		st := &c.steps[step]
		d1 := int(d) + 1
		mayClose := st.mayClose(d1)
		mayCont := st.mayContinue(d1)
		dk := int32(st.dKey(d1))
		// expand handles one traversed neighbor; closures here do not
		// escape (they are only passed down the iteration), so they stay
		// off the heap.
		expand := func(next graph.NodeID) bool {
			if mayClose && st.predsHold(g, next) {
				if step == last {
					if collect {
						member[next>>6] |= 1 << (next & 63)
					} else if next == target {
						found = true
						return true
					}
				} else {
					bit := uint64(next)*uint64(S) + uint64(c.stepBase[step+1])
					if visited[bit>>6]&(1<<(bit&63)) == 0 {
						visited[bit>>6] |= 1 << (bit & 63)
						frontier = append(frontier, packState(next, step+1, 0))
					}
				}
			}
			if mayCont {
				bit := uint64(next)*uint64(S) + uint64(c.stepBase[step]) + uint64(dk)
				if visited[bit>>6]&(1<<(bit&63)) == 0 {
					visited[bit>>6] |= 1 << (bit & 63)
					frontier = append(frontier, packState(next, step, dk))
				}
			}
			return false
		}
		if st.dir == pathexpr.Out || st.dir == pathexpr.Both {
			if csr != nil {
				run := csr.OutNeighbors(node, st.label)
				work += len(run)
				for _, nb := range run {
					if expand(graph.NodeID(nb)) {
						return true, frontier, work
					}
				}
			} else {
				stop := false
				g.OutEdges(node, func(edge graph.Edge) bool {
					work++
					if edge.Label == st.label && expand(edge.To) {
						stop = true
						return false
					}
					return true
				})
				if stop {
					return true, frontier, work
				}
			}
		}
		if st.dir == pathexpr.In || st.dir == pathexpr.Both {
			if csr != nil {
				run := csr.InNeighbors(node, st.label)
				work += len(run)
				for _, nb := range run {
					if expand(graph.NodeID(nb)) {
						return true, frontier, work
					}
				}
			} else {
				stop := false
				g.InEdges(node, func(edge graph.Edge) bool {
					work++
					if edge.Label == st.label && expand(edge.From) {
						stop = true
						return false
					}
					return true
				})
				if stop {
					return true, frontier, work
				}
			}
		}
	}
	return false, frontier, work
}

// seedFlat marks and enqueues the BFS start state (owner, step 0, d 0).
func seedFlat(c *compiled, visited []uint64, frontier []uint64, owner graph.NodeID) []uint64 {
	bit := uint64(owner) * uint64(c.states)
	visited[bit>>6] |= 1 << (bit & 63)
	return append(frontier, packState(owner, 0, 0))
}

// flatWords returns the visited-bitset size in words for V nodes.
func (c *compiled) flatWords(v int) int {
	return (v*int(c.states) + 63) / 64
}
