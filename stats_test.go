package reachac

import (
	"fmt"
	"testing"
)

// TestStatsDelta: Delta must subtract the monotonic counters and carry
// the gauges — the contract acbench's per-scenario counter attribution
// rests on.
func TestStatsDelta(t *testing.T) {
	prev := Stats{
		Users: 10, Relationships: 20, Engine: "online-bfs",
		Checks: 100, BatchChecks: 5, Audiences: 2,
		Mutations: 50, Batches: 30, Republications: 7,
		Checkpoints: 1, CheckpointsSkipped: 2,
		WALAppends: 40, WALFsyncs: 25, WALSegmentBytes: 111, WALSegmentSeq: 1,
	}
	cur := Stats{
		Users: 12, Relationships: 24, Engine: "online-bfs", Durable: true,
		Checks: 350, BatchChecks: 9, Audiences: 6,
		Mutations: 80, Batches: 45, Republications: 9,
		Checkpoints: 2, CheckpointsSkipped: 5,
		WALAppends: 70, WALFsyncs: 31, WALSegmentBytes: 222, WALSegmentSeq: 2,
	}
	d := cur.Delta(prev)
	if d.Checks != 250 || d.BatchChecks != 4 || d.Audiences != 4 ||
		d.Mutations != 30 || d.Batches != 15 || d.Republications != 2 ||
		d.Checkpoints != 1 || d.CheckpointsSkipped != 3 ||
		d.WALAppends != 30 || d.WALFsyncs != 6 {
		t.Fatalf("counter deltas wrong: %+v", d)
	}
	// Gauges and identity fields carry the current values.
	if d.Users != 12 || d.Relationships != 24 || !d.Durable ||
		d.Engine != "online-bfs" || d.WALSegmentBytes != 222 || d.WALSegmentSeq != 2 {
		t.Fatalf("gauges not carried: %+v", d)
	}
}

// TestStatsDeltaLive exercises Delta over a real network window.
func TestStatsDeltaLive(t *testing.T) {
	n := New()
	alice := n.MustAddUser("alice")
	bob := n.MustAddUser("bob")
	if err := n.Relate(alice, bob, "friend"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Share("photo", alice, "friend+[1]"); err != nil {
		t.Fatal(err)
	}
	before := n.Stats()
	for i := 0; i < 5; i++ {
		if _, err := n.CanAccess("photo", bob); err != nil {
			t.Fatal(err)
		}
	}
	d := n.Stats().Delta(before)
	if d.Checks != 5 {
		t.Fatalf("window checks = %d, want 5", d.Checks)
	}
	if d.Mutations != 0 {
		t.Fatalf("window mutations = %d, want 0", d.Mutations)
	}
}

// TestPlanCompilesStayAtOnePerRulePath: with more rule paths than the
// search engine's plan-cache sweep floor (1024), every path compiles once
// (forward, plus its reversal when the planner runs it from the
// requester), and deciding the same resources for new requesters — fresh
// searches, not decision-cache hits — compiles nothing more.
func TestPlanCompilesStayAtOnePerRulePath(t *testing.T) {
	n := New(WithPlanner(PlannerOptions{}))
	const members, resources = 40, 1500
	ids := make([]UserID, members)
	for i := range ids {
		ids[i] = n.MustAddUser(fmt.Sprintf("u%02d", i))
	}
	for i := range ids {
		if err := n.Relate(ids[i], ids[(i+1)%members], "friend"); err != nil {
			t.Fatal(err)
		}
		if err := n.Relate(ids[i], ids[(i+3)%members], "colleague"); err != nil {
			t.Fatal(err)
		}
	}
	paths := []string{"friend+[1,2]", "friend+[1]/colleague+[1]", "colleague-[1]", "friend*[1,3]"}
	for r := 0; r < resources; r++ {
		if _, err := n.Share(fmt.Sprintf("res-%04d", r), ids[r%members], paths[r%len(paths)]); err != nil {
			t.Fatal(err)
		}
	}
	decideAll := func(offset int) {
		for r := 0; r < resources; r++ {
			req := ids[(r+offset)%members]
			if _, err := n.CanAccess(fmt.Sprintf("res-%04d", r), req); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := n.Stats().PlanCompiles
	decideAll(1)
	warm := n.Stats().PlanCompiles - before
	if warm == 0 || warm > 2*resources {
		t.Fatalf("warm-up compiled %d plans for %d rule paths, want between 1 and %d", warm, resources, 2*resources)
	}
	for offset := 2; offset < 8; offset++ {
		decideAll(offset)
	}
	if extra := n.Stats().PlanCompiles - before - warm; extra != 0 {
		t.Fatalf("%d plans recompiled after warm-up", extra)
	}
}
