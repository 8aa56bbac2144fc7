package search

import (
	"math/rand"
	"testing"

	"reachac/internal/generate"
	"reachac/internal/graph"
	"reachac/internal/pathexpr"
)

// BenchmarkReachableCold measures one flat product-BFS per iteration on the
// 100k-member ldbc graph, over random (owner, requester) pairs and the
// workload paths: every query pays its full search, as a decision-cache
// miss does.
func BenchmarkReachableCold(b *testing.B) {
	top, err := generate.New("ldbc", generate.WithNodes(100_000), generate.WithDegree(8), generate.WithSeed(1))
	if err != nil {
		b.Fatal(err)
	}
	g, err := generate.Build(top)
	if err != nil {
		b.Fatal(err)
	}
	g.CSR()
	e := New(g)
	paths := []*pathexpr.Path{
		pathexpr.MustParse("friend+[1,2]"),
		pathexpr.MustParse("friend+[1]/colleague+[1,2]"),
		pathexpr.MustParse("colleague+[1]/friend+[1,2]"),
		pathexpr.MustParse("friend+[1,3]"),
	}
	rng := rand.New(rand.NewSource(1))
	const pairs = 4096
	owners, reqs := make([]graph.NodeID, pairs), make([]graph.NodeID, pairs)
	for i := range owners {
		owners[i] = graph.NodeID(rng.Intn(g.NumNodes()))
		reqs[i] = graph.NodeID(rng.Intn(g.NumNodes()))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % pairs
		if _, err := e.Reachable(owners[j], reqs[j], paths[i%len(paths)]); err != nil {
			b.Fatal(err)
		}
	}
}
