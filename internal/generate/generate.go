package generate

import (
	"fmt"

	"reachac/internal/graph"
)

// This file is the deprecation shim over the streaming Topology API (see
// doc.go, topology.go, options.go) for the osn family's original surface —
// a config struct and a constructor returning a fully materialized
// *graph.Graph. It reproduces the legacy draw sequence exactly, so shimmed
// output is byte-identical to pre-redesign output for every seed.

// UserName formats the i-th generated member's handle ("u000042") — the
// naming every generator in this package assigns in node-ID order, which
// drivers that address a server by name (cmd/acbench's HTTP mode) rely on
// to map node IDs back to members.
func UserName(i int) string { return fmt.Sprintf("u%06d", i) }

// OSNConfig parameterizes the community-structured social network
// generator.
//
// Deprecated: use New("osn", ...) with functional options instead.
type OSNConfig struct {
	// Nodes is the member count.
	Nodes int
	// Communities is the number of communities members are assigned to
	// round-robin (default: Nodes/500 + 4).
	Communities int
	// AvgOutDegree is the expected out-degree per member (default 8).
	AvgOutDegree int
	// IntraProb is the probability an edge stays inside the member's
	// community (default 0.8); community-local targets produce the high
	// clustering typical of OSNs.
	IntraProb float64
	// LabelWeights maps relationship types to sampling weights (default
	// friend 0.65, colleague 0.2, parent 0.05, follows 0.1).
	LabelWeights map[string]float64
	// Reciprocity is the probability a friend edge is reciprocated
	// (default 0.5).
	Reciprocity float64
	// WithAttrs adds age/city/gender attributes to every member.
	WithAttrs bool
	// Acyclic orients every edge from the higher member id to the lower
	// (a hierarchy / celebrity-follow shape), producing an acyclic graph
	// whose line graph is also acyclic. Reciprocity is ignored.
	Acyclic bool
	// Seed drives all randomness.
	Seed int64
}

// options translates the legacy config into the functional-options form;
// zero values pass through and New resolves the same defaults the legacy
// defaults() method did.
func (c OSNConfig) options() []Option {
	opts := []Option{
		WithNodes(c.Nodes), WithSeed(c.Seed),
		WithCommunities(c.Communities), WithDegree(c.AvgOutDegree),
		WithIntraProb(c.IntraProb), WithReciprocity(c.Reciprocity),
	}
	if len(c.LabelWeights) > 0 {
		opts = append(opts, WithLabelWeights(c.LabelWeights))
	}
	if c.WithAttrs {
		opts = append(opts, WithAttrs())
	}
	if c.Acyclic {
		opts = append(opts, WithAcyclic())
	}
	return opts
}

// OSN generates a community-structured social graph with typed edges.
// Edges are preferential inside each community (hubs emerge), uniform
// across communities.
//
// Deprecated: use New("osn", WithNodes(n), ...) and Build, or stream the
// Topology directly.
func OSN(cfg OSNConfig) *graph.Graph {
	return MustBuild(MustNew("osn", cfg.options()...))
}
