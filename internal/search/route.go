package search

import (
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// This file exposes the engine's query-cost hooks to the planner: first-step
// seed fan-outs for both endpoints of a pattern (RouteCosts) and execution
// of the reversed pattern from the requester (ReachableReverse). The old
// adaptive engine's endpoint selection (adaptive.go) is now a thin shim over
// these two.

// RouteCosts estimates, for one reachability query, the seed fan-out of
// starting the product search at each endpoint: fwd counts owner's
// traversals admitted by the pattern's first step, rev counts requester's
// traversals admitted by the reversed pattern's first step (the last step
// with its orientation flipped). With a fresh CSR both are O(1) run-length
// reads. Both endpoints must be valid nodes.
func (e *Engine) RouteCosts(owner, requester graph.NodeID, p *pathexpr.Path) (fwd, rev int, err error) {
	c, err := e.plan(p)
	if err != nil {
		return 0, 0, err
	}
	first := &c.steps[0]
	fwd = e.seedCount(owner, first.label, first.labelOK, first.dir)
	last := &c.steps[len(c.steps)-1]
	rev = e.seedCount(requester, last.label, last.labelOK, flipDir(last.dir))
	return fwd, rev, nil
}

// ReachableReverse answers Reachable(owner, requester, p) by running the
// reversed pattern from the requester: owner ⊨p⊨> requester iff the
// reversal's source predicates hold on the requester and requester
// ⊨reverse(p)⊨> owner (see pathexpr.Reverse). It is profitable when the
// requester's cone is smaller than the owner's; decisions are identical to
// Reachable either way.
func (e *Engine) ReachableReverse(owner, requester graph.NodeID, p *pathexpr.Path) (bool, error) {
	if !e.g.ValidNode(owner) || !e.g.ValidNode(requester) {
		// Delegate for uniform error wording.
		return e.Reachable(owner, requester, p)
	}
	c, err := e.plan(p)
	if err != nil {
		return false, err
	}
	r, err := e.reversePlan(c, p)
	if err != nil {
		return false, err
	}
	for _, pr := range r.preds {
		if !pr.Eval(e.g.Node(requester).Attrs) {
			return false, nil
		}
	}
	return e.reachable(r.c, requester, owner, r.path)
}

// seedCount counts the traversals of node n admitted as a first edge with
// the resolved label and orientation (predicates do not affect fan-out).
// With a fresh CSR the counts are O(1) run-length reads; otherwise the edge
// scan's cost matches one BFS step the caller was about to pay anyway.
func (e *Engine) seedCount(n graph.NodeID, label graph.Label, labelOK bool, dir pathexpr.Direction) int {
	if !labelOK {
		return 0
	}
	if c := e.g.FreshCSR(); c != nil {
		count := 0
		if dir == pathexpr.Out || dir == pathexpr.Both {
			count += len(c.OutNeighbors(n, label))
		}
		if dir == pathexpr.In || dir == pathexpr.Both {
			count += len(c.InNeighbors(n, label))
		}
		return count
	}
	count := 0
	if dir == pathexpr.Out || dir == pathexpr.Both {
		e.g.OutEdges(n, func(edge graph.Edge) bool {
			if edge.Label == label {
				count++
			}
			return true
		})
	}
	if dir == pathexpr.In || dir == pathexpr.Both {
		e.g.InEdges(n, func(edge graph.Edge) bool {
			if edge.Label == label {
				count++
			}
			return true
		})
	}
	return count
}

// flipDir reverses a traversal orientation.
func flipDir(d pathexpr.Direction) pathexpr.Direction {
	switch d {
	case pathexpr.Out:
		return pathexpr.In
	case pathexpr.In:
		return pathexpr.Out
	default:
		return pathexpr.Both
	}
}
