// Package oracle keeps the reference implementation of
// routing.Reinforce: one pair at a time in sorted order, the links a
// pair's routes use kept in a map, and a fresh BFS for every backup that
// stops when the destination is popped. It is the differential oracle
// for routing.Reinforce and the baseline of its benchmark. Only tests
// and benchmarks import it.
package oracle

import (
	"cmp"
	"slices"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Reinforce mirrors routing.Reinforce: every routed pair keeps its
// primary route and gains up to backups additional routes, backup i a
// BFS shortest path (smallest-id tie-breaking) in the graph without the
// links of the routes already chosen for the pair.
func Reinforce(r *routing.Routing, backups int) (*routing.MultiRouting, error) {
	if backups < 0 {
		backups = 0
	}
	g := r.Graph()
	m := routing.NewMulti(g, backups+1, false)
	var firstErr error
	for _, k := range sortedPairs(r) {
		primary, _ := r.Get(k[0], k[1])
		if err := m.Add(primary); err != nil {
			return nil, err
		}
		used := make(map[routing.EdgeFault]bool)
		markPathLinks(primary, used)
		for b := 0; b < backups; b++ {
			alt := shortestPathAvoidingLinks(g, k[0], k[1], used)
			if alt == nil {
				break
			}
			added, err := m.AddCapped(alt)
			if err != nil {
				firstErr = err
				break
			}
			if !added {
				break
			}
			markPathLinks(alt, used)
		}
	}
	return m, firstErr
}

// sortedPairs returns r's routed pairs in lexicographic order.
func sortedPairs(r *routing.Routing) [][2]int {
	var pairs [][2]int
	r.Each(func(u, v int, _ routing.Path) { pairs = append(pairs, [2]int{u, v}) })
	slices.SortFunc(pairs, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	return pairs
}

// markPathLinks adds p's links to used, normalized.
func markPathLinks(p routing.Path, used map[routing.EdgeFault]bool) {
	for i := 0; i+1 < len(p); i++ {
		used[routing.EdgeFault{U: p[i], V: p[i+1]}.Normalize()] = true
	}
}

// shortestPathAvoidingLinks runs a BFS from u to v that never traverses
// a link in avoid, with deterministic smallest-id tie-breaking (the same
// rule as routing.ShortestPath). It returns nil when v is unreachable.
func shortestPathAvoidingLinks(g *graph.Graph, u, v int, avoid map[routing.EdgeFault]bool) routing.Path {
	n := g.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[u] = -1
	queue := []int32{int32(u)}
	for head := 0; head < len(queue); head++ {
		x := int(queue[head])
		if x == v {
			break
		}
		g.EachNeighbor(x, func(y int) bool {
			if parent[y] == -2 && !avoid[routing.EdgeFault{U: x, V: y}.Normalize()] {
				parent[y] = int32(x)
				queue = append(queue, int32(y))
			}
			return true
		})
	}
	if parent[v] == -2 {
		return nil
	}
	rev := routing.Path{v}
	for x := v; parent[x] >= 0; {
		x = int(parent[x])
		rev = append(rev, x)
	}
	return rev.Reversed()
}
