package planner

import (
	"fmt"
	"sync"
	"testing"

	"reachac/internal/core"
	"reachac/internal/graph"
)

// TestDecisionCacheConcurrentGetPut: Gets and Puts from many goroutines over
// overlapping keys leave exactly one entry per distinct key, every hit
// returns the decision stored for its key, and a following Advance evicts
// exactly the flipped entries with Len tracking the survivors.
func TestDecisionCacheConcurrentGetPut(t *testing.T) {
	resources := []core.ResourceID{"album", "doc", "ghost", "wall"}
	c := NewDecisionCache(labelsByResource(map[core.ResourceID][]string{
		"album": {"friend"},
		"doc":   {"parent"},
		"wall":  {"friend", "colleague"},
	}), nil)
	// decisionFor is the one decision each key ever stores: a Deny, a
	// per-resource Allow or an owner grant, spread over the requesters.
	decisionFor := func(res core.ResourceID, req graph.NodeID) core.Decision {
		switch req % 3 {
		case 0:
			return deny()
		case 1:
			return core.Decision{Effect: core.Allow, RuleID: "r-" + string(res), Reason: "granted by " + string(res)}
		default:
			return allow("owner")
		}
	}
	const workers, requesters = 8, 600
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requesters; i++ {
				// Each worker walks the keys in its own order, so Puts of the
				// same key race.
				req := graph.NodeID((i*7 + w*101) % requesters)
				res := resources[(i+w)%len(resources)]
				want := decisionFor(res, req)
				if d, ok := c.Get(res, req); ok {
					if d.Effect != want.Effect || d.RuleID != want.RuleID || d.Reason != want.Reason ||
						d.Resource != res || d.Requester != req {
						t.Errorf("Get(%s, %d) = %+v, want %+v", res, req, d, want)
						return
					}
					continue
				}
				c.Put(res, req, want)
			}
		}(w)
	}
	wg.Wait()
	// Every worker visits every (resource, requester) pair the sequence
	// produces; count the distinct ones.
	type key struct {
		res core.ResourceID
		req graph.NodeID
	}
	distinct := map[key]bool{}
	for w := 0; w < workers; w++ {
		for i := 0; i < requesters; i++ {
			distinct[key{resources[(i+w)%len(resources)], graph.NodeID((i*7 + w*101) % requesters)}] = true
		}
	}
	if c.Len() != len(distinct) {
		t.Fatalf("Len = %d after concurrent Puts, want %d distinct keys", c.Len(), len(distinct))
	}
	// Removing a friend edge evicts the non-owner Allows of the resources
	// tagged with friend (album, wall) and nothing else.
	wantEvicted := 0
	for k := range distinct {
		if (k.res == "album" || k.res == "wall") && k.req%3 == 1 {
			wantEvicted++
		}
	}
	c.Advance([]graph.Delta{{Op: graph.OpRemoveEdge, From: 1, To: 2, Label: "friend"}})
	if c.Len() != len(distinct)-wantEvicted {
		t.Fatalf("Len = %d after Advance, want %d", c.Len(), len(distinct)-wantEvicted)
	}
	for k := range distinct {
		_, ok := c.Get(k.res, k.req)
		evicted := (k.res == "album" || k.res == "wall") && k.req%3 == 1
		if ok == evicted {
			t.Fatalf("Get(%s, %d) hit=%v after Advance, want hit=%v", k.res, k.req, ok, !evicted)
		}
	}
}

// BenchmarkDecisionCachePut measures the decision-cache side of one cold
// check: a missing Get followed by the Put that memoizes the fresh
// decision, over distinct (resource, requester) pairs.
func BenchmarkDecisionCachePut(b *testing.B) {
	const resources = 1024
	ids := make([]core.ResourceID, resources)
	tags := make(map[core.ResourceID][]string, resources)
	for i := range ids {
		ids[i] = core.ResourceID(fmt.Sprintf("res-%04d", i))
		tags[ids[i]] = []string{"friend"}
	}
	allowed := core.Decision{Effect: core.Allow, RuleID: "rule-1", Reason: "all conditions of rule \"rule-1\" satisfied"}
	c := NewDecisionCache(labelsByResource(tags), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%maxCachedDecisions == 0 && i > 0 {
			b.StopTimer()
			c = NewDecisionCache(labelsByResource(tags), nil)
			b.StartTimer()
		}
		res, req := ids[i%resources], graph.NodeID(i/resources)
		if _, ok := c.Get(res, req); !ok {
			d := deny()
			if i%10 == 0 {
				d = allowed
			}
			c.Put(res, req, d)
		}
	}
}
