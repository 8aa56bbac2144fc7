package search

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// scratchGraph builds a random three-label graph for the scratch tests.
func scratchGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = g.MustAddNode(fmt.Sprintf("u%04d", i), nil)
	}
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"friend", "colleague", "parent"}
	for i := 0; i < 3*n; i++ {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a != b {
			// A repeated (a, label, b) triple is rejected; skip it.
			g.AddEdge(a, b, labels[rng.Intn(len(labels))])
		}
	}
	g.CSR()
	return g
}

// freshReachable is the oracle for the pooled search: the same flat BFS
// over freshly allocated bitsets.
func freshReachable(e *Engine, c *compiled, owner, req graph.NodeID) bool {
	visited := make([]uint64, c.flatWords(e.g.NumNodes()))
	frontier := seedFlat(c, visited, nil, owner)
	found, _, _ := e.runFlat(c, visited, nil, frontier, req, false)
	return found
}

// freshAudience is freshReachable's audience counterpart.
func freshAudience(e *Engine, c *compiled, owner graph.NodeID) []graph.NodeID {
	v := e.g.NumNodes()
	visited := make([]uint64, c.flatWords(v))
	member := make([]uint64, (v+63)/64)
	frontier := seedFlat(c, visited, nil, owner)
	e.runFlat(c, visited, member, frontier, graph.InvalidNode, true)
	return appendBits(nil, member)
}

// assertScratchZero checks the scratch-zero invariant on the pooled
// scratch a query would borrow next.
func assertScratchZero(t *testing.T, step string) {
	t.Helper()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	for i, w := range sc.visited[:cap(sc.visited)] {
		if w != 0 {
			t.Fatalf("%s: pooled visited word %d = %#x, want 0", step, i, w)
		}
	}
}

// TestPooledScratchMatchesFreshOracle interleaves Reachable,
// ReachableReverse and AppendAudience on one pooled scratch over plans whose
// per-node state counts differ (so consecutive queries reslice the bitset
// to different lengths), with early-exit hits leaving unexpanded frontier
// states behind, and compares every answer with a fresh-bitset oracle.
func TestPooledScratchMatchesFreshOracle(t *testing.T) {
	g := scratchGraph(t, 400, 3)
	e := New(g)
	paths := []*pathexpr.Path{
		pathexpr.MustParse("friend+[1]"),                         // S = 2
		pathexpr.MustParse("friend+[1,3]/colleague+[1]"),         // S = 6
		pathexpr.MustParse("friend*[1,2]/parent-[1]"),            // both directions
		pathexpr.MustParse("friend+[1,6]/colleague+[1,4]"),       // S = 12
		pathexpr.MustParse("colleague+[2]/friend+[1,2]/parent+"), // unbounded
	}
	rng := rand.New(rand.NewSource(11))
	var hits, misses int
	for i := 0; i < 3000; i++ {
		p := paths[rng.Intn(len(paths))]
		c, err := e.plan(p)
		if err != nil {
			t.Fatal(err)
		}
		owner := graph.NodeID(rng.Intn(g.NumNodes()))
		req := graph.NodeID(rng.Intn(g.NumNodes()))
		step := fmt.Sprintf("query %d (%s, %d, %d)", i, p, owner, req)
		switch i % 3 {
		case 0:
			got, err := e.Reachable(owner, req, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshReachable(e, c, owner, req); got != want {
				t.Fatalf("%s: Reachable = %v, fresh oracle %v", step, got, want)
			}
			if got {
				hits++
			} else {
				misses++
			}
		case 1:
			got, err := e.ReachableReverse(owner, req, p)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshReachable(e, c, owner, req); got != want {
				t.Fatalf("%s: ReachableReverse = %v, fresh oracle %v", step, got, want)
			}
		default:
			got, err := e.AppendAudience(nil, owner, p)
			if err != nil {
				t.Fatal(err)
			}
			want := freshAudience(e, c, owner)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: AppendAudience = %v, fresh oracle %v", step, got, want)
			}
		}
		assertScratchZero(t, step)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("query mix lacks early-exit hits or misses: %d hits, %d misses", hits, misses)
	}
}

// TestPlanCacheKeepsEveryRulePath: with more rule paths than the sweep
// floor, each path (and its reversal) compiles exactly once, and serving
// them again compiles nothing.
func TestPlanCacheKeepsEveryRulePath(t *testing.T) {
	g := scratchGraph(t, 50, 5)
	e := New(g)
	var compiles atomic.Uint64
	e.Compiles = &compiles
	const rules = 3 * minPlanSweep / 2
	paths := make([]*pathexpr.Path, rules)
	for i := range paths {
		paths[i] = pathexpr.MustParse(fmt.Sprintf("friend+[1,%d]", 1+i%4))
	}
	serve := func() {
		for i, p := range paths {
			owner, req := graph.NodeID(i%50), graph.NodeID((i+7)%50)
			if _, err := e.Reachable(owner, req, p); err != nil {
				t.Fatal(err)
			}
			if _, err := e.ReachableReverse(owner, req, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve()
	if got := compiles.Load(); got != 2*rules {
		t.Fatalf("warm-up compiles = %d, want %d (one forward and one reversed per path)", got, 2*rules)
	}
	for round := 0; round < 3; round++ {
		serve()
	}
	if got := compiles.Load(); got != 2*rules {
		t.Fatalf("compiles after warm-up = %d, want %d", got, 2*rules)
	}
}

// TestPlanCacheBoundsAdHocPaths: per-call parsed paths are swept out while
// rule paths served between sweeps stay compiled.
func TestPlanCacheBoundsAdHocPaths(t *testing.T) {
	g := scratchGraph(t, 50, 5)
	e := New(g)
	var compiles atomic.Uint64
	e.Compiles = &compiles
	rules := make([]*pathexpr.Path, 1500)
	for i := range rules {
		rules[i] = pathexpr.MustParse("friend+[1,2]")
	}
	const passes, adhocPerPass = 20, 500
	for pass := 0; pass < passes; pass++ {
		for _, p := range rules {
			if _, err := e.Reachable(0, 1, p); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < adhocPerPass; i++ {
			if _, err := e.Reachable(0, 1, pathexpr.MustParse("colleague+[1,2]")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := compiles.Load(), uint64(len(rules)+passes*adhocPerPass); got != want {
		t.Fatalf("compiles = %d, want %d (rule paths recompiled)", got, want)
	}
	e.planMu.Lock()
	count, kept := e.planCount, e.planKept
	e.planMu.Unlock()
	// The survivors converge to the rule paths plus one inter-sweep batch
	// of per-call paths, at most half the survivors: 2·len(rules).
	if kept > 2*len(rules) || count > kept+max(minPlanSweep, kept/2) {
		t.Fatalf("plan cache holds %d plans (kept %d at last sweep), want kept <= %d", count, kept, 2*len(rules))
	}
}
