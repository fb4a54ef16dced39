package sym

import "ftroute/internal/graph"

// Orbits returns, for each of n points, the smallest point in its orbit
// under the given permutations (closure is taken, so generators
// suffice). Points with the same value lie in the same orbit.
func Orbits(n int, perms [][]int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, p := range perms {
		for i, v := range p {
			union(i, v)
		}
	}
	minOf := make(map[int]int, n)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := minOf[r]; !ok {
			minOf[r] = i // ascending scan: first member is the minimum
		}
		out[i] = minOf[r]
	}
	return out
}

// OrbitCount counts the distinct orbits in an Orbits result.
func OrbitCount(orbits []int) int {
	count := 0
	for i, r := range orbits {
		if r == i {
			count++
		}
	}
	return count
}

// EdgeIndex maps a graph's edges (in graph.Edges() order, the item
// order the eval adversaries use) to contiguous ids, for lifting node
// permutations to edge and mixed-item permutations.
type EdgeIndex struct {
	n     int
	edges [][2]int
	id    map[int64]int
}

// NewEdgeIndex builds the edge-id index of g.
func NewEdgeIndex(g *graph.Graph) *EdgeIndex {
	ix := &EdgeIndex{n: g.N(), edges: g.Edges()}
	ix.id = make(map[int64]int, len(ix.edges))
	for i, e := range ix.edges {
		ix.id[edgeKey(e[0], e[1])] = i
	}
	return ix
}

func edgeKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// Perm lifts node permutation p to a permutation of edge ids. ok is
// false when p does not have n entries or some edge image is not an
// edge, i.e. p is not an automorphism.
func (ix *EdgeIndex) Perm(p []int) ([]int, bool) {
	if len(p) != ix.n {
		return nil, false
	}
	out := make([]int, len(ix.edges))
	for i, e := range ix.edges {
		j, ok := ix.id[edgeKey(p[e[0]], p[e[1]])]
		if !ok {
			return nil, false
		}
		out[i] = j
	}
	return out, true
}

// MixedPerm lifts node permutation p to the n+m mixed item universe the
// eval adversaries enumerate: items 0..n-1 are nodes, n..n+m-1 are
// edges in graph.Edges() order.
func (ix *EdgeIndex) MixedPerm(p []int) ([]int, bool) {
	ep, ok := ix.Perm(p)
	if !ok {
		return nil, false
	}
	out := make([]int, ix.n+len(ix.edges))
	copy(out, p)
	for i, j := range ep {
		out[ix.n+i] = ix.n + j
	}
	return out, true
}

// EdgeOrbits returns the orbit representative per edge id (graph.Edges()
// order) under the node permutations; non-automorphism permutations are
// skipped.
func EdgeOrbits(g *graph.Graph, perms [][]int) []int {
	ix := NewEdgeIndex(g)
	lifted := make([][]int, 0, len(perms))
	for _, p := range perms {
		if ep, ok := ix.Perm(p); ok {
			lifted = append(lifted, ep)
		}
	}
	return Orbits(len(ix.edges), lifted)
}

// MixedOrbits returns the orbit representative per mixed item (n nodes
// then m edges) under the node permutations; non-automorphism
// permutations are skipped.
func MixedOrbits(g *graph.Graph, perms [][]int) []int {
	ix := NewEdgeIndex(g)
	lifted := make([][]int, 0, len(perms))
	for _, p := range perms {
		if mp, ok := ix.MixedPerm(p); ok {
			lifted = append(lifted, mp)
		}
	}
	return Orbits(g.N()+len(ix.edges), lifted)
}
