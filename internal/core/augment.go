package core

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// AugmentInfo describes a clique-augmented kernel routing.
type AugmentInfo struct {
	T          int
	Separator  []int
	AddedEdges [][2]int // the links added inside the concentrator
	Bound      int      // 3: the routing is (3, t)-tolerant on the modified network
}

// CliqueAugmentedKernel implements the "changing the network" variant of
// Section 6: take the basic kernel construction and add links between
// concentrator nodes until M induces a clique. Every surviving node then
// reaches a surviving concentrator member in one hop (tree routing),
// concentrator members reach each other in one hop (clique edges), so
// the surviving diameter is at most 3 at the price of at most
// t(t+1)/2 new links.
//
// It returns the modified graph, the (3, t)-tolerant bidirectional
// routing on it, and the list of added edges.
func CliqueAugmentedKernel(g *graph.Graph, opts Options) (*graph.Graph, *routing.Routing, *AugmentInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	sep, err := separator(g, opts, t)
	if err != nil {
		return nil, nil, nil, err
	}
	mod := g.Clone()
	var added [][2]int
	for i := 0; i < len(sep); i++ {
		for j := i + 1; j < len(sep); j++ {
			ok, aerr := mod.AddEdgeIfAbsent(sep[i], sep[j])
			if aerr != nil {
				return nil, nil, nil, aerr
			}
			if ok {
				added = append(added, [2]int{sep[i], sep[j]})
			}
		}
	}
	// Kernel routing on the modified network, reusing the separator and
	// tolerance of the original graph: adding edges cannot lower the
	// connectivity, so the (·, t) guarantee carries over.
	r, _, err := Kernel(mod, Options{Tolerance: t, Separator: sep})
	if err != nil {
		return nil, nil, nil, err
	}
	return mod, r, &AugmentInfo{T: t, Separator: sep, AddedEdges: added, Bound: 3}, nil
}
