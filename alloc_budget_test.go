//go:build !race

// Allocation budgets for the facade read path, the user-facing counterpart
// of the zero-allocation assertions on search.Engine (internal/search's
// alloc_test.go). The facade cannot be literally allocation-free — audience
// results are copied out of the shared cache, batch decisions fan out over
// goroutines — so each operation gets an explicit measured budget instead,
// and CI fails when a regression pushes past it. Excluded under the race
// detector, whose instrumentation perturbs allocation behavior.
package reachac

import (
	"fmt"
	"testing"
)

// allocNet builds a 200-member network with a shared album and warms the
// snapshot: decision cache, plan cache, CSR and audience cache all hot.
func allocNet(t testing.TB) (*Network, []UserID) {
	t.Helper()
	n := New()
	const members = 200
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%03d", i))
	}
	for i := 0; i < members; i++ {
		if err := n.Relate(ids[i], ids[(i+1)%members], "friend"); err != nil {
			t.Fatal(err)
		}
		if err := n.Relate(ids[i], ids[(i+7)%members], "colleague"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Share("album", ids[0], "friend+[1,3]"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := n.CanAccess("album", ids[21]); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Audience("album"); err != nil {
			t.Fatal(err)
		}
	}
	return n, ids
}

// TestCanAccessAllocBudget: a warmed CanAccess is a snapshot pin plus a
// decision-cache hit and allocates nothing at all.
func TestCanAccessAllocBudget(t *testing.T) {
	n, ids := allocNet(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.CanAccess("album", ids[21]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warmed CanAccess allocates %.2f objects/op, budget 0", allocs)
	}
}

// TestAudienceAllocBudget: a warmed Audience is served from the audience
// cache; the only allocations assemble the fresh result slice handed to the
// caller (measured: 2 objects/op).
func TestAudienceAllocBudget(t *testing.T) {
	n, _ := allocNet(t)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.Audience("album"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Fatalf("warmed Audience allocates %.2f objects/op, budget 2", allocs)
	}
}

// TestCanAccessAllAllocBudget: a warmed 16-requester batch pays for the
// result slice and the worker fan-out, independent of batch size (measured:
// 2 objects/op; budget 4 leaves room for scheduler-dependent goroutine
// bookkeeping).
func TestCanAccessAllAllocBudget(t *testing.T) {
	n, ids := allocNet(t)
	reqs := ids[:16]
	if _, err := n.CanAccessAll("album", reqs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.CanAccessAll("album", reqs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("warmed CanAccessAll allocates %.2f objects/op, budget 4", allocs)
	}
}

// TestColdCheckAllocBudget: a decision-cache miss — every call asks about a
// requester not seen before — pays only its search and the cache insert.
// The search runs on pooled scratch, the frozen policy view is read without
// copying, an Allow's reason is built once per rule, the audit ring is
// preallocated and the decision cache stores pointer-free entries, so a
// Deny allocates nothing and an Allow at most one object (amortized map
// growth of the cache stays below one per call).
func TestColdCheckAllocBudget(t *testing.T) {
	n := New()
	const members = 4000
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%04d", i))
	}
	owner := ids[0]
	for i := 1; i < members; i++ {
		// The owner befriends everyone; colleague edges exist, but none
		// leaves the owner.
		if err := n.Relate(owner, ids[i], "friend"); err != nil {
			t.Fatal(err)
		}
		if err := n.Relate(ids[i], ids[(i%(members-1))+1], "colleague"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Share("open", owner, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("closed", owner, "colleague+[1]"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		resource string
		want     bool
		budget   float64
	}{
		{"closed", false, 0},
		{"open", true, 1},
	} {
		next := 1
		check := func() {
			d, err := n.CanAccess(c.resource, ids[next])
			if err != nil {
				t.Fatal(err)
			}
			if (d.Effect == Allow) != c.want {
				t.Fatalf("%s for %d: allowed=%v, want %v", c.resource, next, d.Effect == Allow, c.want)
			}
			next++
		}
		for i := 0; i < 8; i++ { // publish the snapshot, warm plans and scratch
			check()
		}
		allocs := testing.AllocsPerRun(members-100, check)
		if allocs > c.budget {
			t.Fatalf("cold CanAccess(%s) allocates %.2f objects/op, budget %.0f", c.resource, allocs, c.budget)
		}
	}
}
