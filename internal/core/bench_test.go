package core

import (
	"testing"

	"ftroute/internal/connectivity/oracle"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// BenchmarkCircularCCC7 is the construction layer at the thousand-node
// anchor, as `ftroute tolerate -construction circular` runs it: κ(G) by
// capped flows on one split network, then ~5,300 tree routings compiled
// on per-worker split networks. Run it with -benchmem.
func BenchmarkCircularCCC7(b *testing.B) {
	g, err := gen.CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, info, err := Circular(g, Options{}); err != nil || info.T != 2 {
			b.Fatal(info, err)
		}
	}
}

// BenchmarkCircularOracleCCC7 is the same construction through the
// reference path of internal/connectivity/oracle: uncapped flows for κ(G)
// and a network rebuilt from the edge list for every flow. The tree
// routings still run on the parallel compiler, so the CI-gated ratio
// BenchmarkCircularCCC7/BenchmarkCircularOracleCCC7 measures the split
// network and the truncated Dinic, not the core count.
func BenchmarkCircularOracleCCC7(b *testing.B) {
	g, err := gen.CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	defer setPathFinder(func(g *graph.Graph) pathFinder { return oracle.Finder{G: g} })()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, _, ok := oracle.VertexConnectivity(g)
		if !ok || k != 3 {
			b.Fatal("κ", k)
		}
		if _, _, err := Circular(g, Options{Tolerance: k - 1}); err != nil {
			b.Fatal(err)
		}
	}
}
