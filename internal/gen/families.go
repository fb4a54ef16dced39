package gen

import (
	"fmt"

	"ftroute/internal/graph"
)

// GeneralizedPetersen returns the generalized Petersen graph GP(n, k):
// an outer cycle u_0..u_{n-1}, inner nodes v_0..v_{n-1} connected as
// v_i -- v_{(i+k) mod n}, and spokes u_i -- v_i. Node u_i has index i,
// v_i has index n+i. It is 3-regular and 3-connected for n >= 3,
// 1 <= k < n/2. GP(5,2) is the Petersen graph. For larger n and k >= 2
// these graphs combine girth >= 5 with growing diameter, which makes
// them a deterministic family satisfying the paper's two-trees property
// — unlike hypercubes (4-cycles) or tori (4-cycles).
func GeneralizedPetersen(n, k int) (*graph.Graph, error) {
	if n < 3 || k < 1 || k > (n-1)/2 || n > graph.MaxNodes/2 {
		return nil, fmt.Errorf("%w: GeneralizedPetersen(%d,%d) requires n >= 3, 1 <= k < n/2", ErrBadParam, n, k)
	}
	g := graph.New(2 * n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n) // outer cycle
		g.MustAddEdge(i, n+i)     // spoke
		if _, err := g.AddEdgeIfAbsent(n+i, n+(i+k)%n); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Prism returns the prism (circular ladder) Y_n = GP(n, 1): two
// concentric n-cycles joined by spokes, 3-regular and 3-connected.
func Prism(n int) (*graph.Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("%w: Prism(%d)", ErrBadParam, n)
	}
	return GeneralizedPetersen(n, 1)
}

// CompleteBipartite returns K_{a,b} with parts 0..a-1 and a..a+b-1
// (connectivity min(a, b)).
func CompleteBipartite(a, b int) (*graph.Graph, error) {
	if a < 1 || b < 1 || a > graph.MaxNodes-b {
		return nil, fmt.Errorf("%w: CompleteBipartite(%d,%d)", ErrBadParam, a, b)
	}
	g := graph.New(a + b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g, nil
}

// BalancedTree returns the complete b-ary tree of the given depth
// (depth 0 is a single root; connectivity 1). Node 0 is the root and
// node i's children are b*i+1 .. b*i+b.
func BalancedTree(b, depth int) (*graph.Graph, error) {
	if b < 1 || depth < 0 || depth > 20 {
		return nil, fmt.Errorf("%w: BalancedTree(%d,%d)", ErrBadParam, b, depth)
	}
	// Total nodes: 1 + b + ... + b^depth, summed level by level.
	n, level := 1, 1
	for d := 1; d <= depth; d++ {
		if level > graph.MaxNodes/b || level*b > graph.MaxNodes-n {
			return nil, fmt.Errorf("%w: BalancedTree(%d,%d) has more than graph.MaxNodes nodes", ErrBadParam, b, depth)
		}
		level *= b
		n += level
	}
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(i, (i-1)/b)
	}
	return g, nil
}

// Barbell returns two cliques K_m joined by a path of pathLen
// intermediate nodes (connectivity 1) — a classical stress topology for
// routings: all cross traffic funnels through the path.
func Barbell(m, pathLen int) (*graph.Graph, error) {
	if m < 2 || pathLen < 0 || m > (graph.MaxNodes-pathLen)/2 {
		return nil, fmt.Errorf("%w: Barbell(%d,%d)", ErrBadParam, m, pathLen)
	}
	n := 2*m + pathLen
	g := graph.New(n)
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			g.MustAddEdge(u, v)
		}
	}
	for u := m + pathLen; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	// Path m .. m+pathLen-1 bridges clique node m-1 to clique node
	// m+pathLen.
	prev := m - 1
	for i := 0; i < pathLen; i++ {
		g.MustAddEdge(prev, m+i)
		prev = m + i
	}
	g.MustAddEdge(prev, m+pathLen)
	return g, nil
}
