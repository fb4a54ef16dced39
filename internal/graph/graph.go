// Package graph provides the undirected-graph and directed-graph
// substrates used throughout the fault-tolerant-routing library.
//
// Graphs are simple (no self-loops, no parallel edges) and use dense
// integer node identifiers 0..N-1. The representation is an adjacency
// list kept sorted for deterministic iteration and O(log d) adjacency
// tests. Graphs are mutable while being built and are typically treated
// as immutable afterwards; none of the algorithms in this module mutate
// their inputs.
//
// Items is the one fault-item numbering of a graph — node v is item v,
// link i of Edges() is item n+i — that every fault search, orbit lift
// and component query of G minus a fault set reads.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Common errors returned by graph mutators and accessors.
var (
	// ErrNodeRange indicates a node identifier outside [0, N).
	ErrNodeRange = errors.New("graph: node out of range")
	// ErrSelfLoop indicates an attempt to add an edge from a node to itself.
	ErrSelfLoop = errors.New("graph: self loop not allowed")
	// ErrDuplicateEdge indicates an attempt to add an edge twice.
	ErrDuplicateEdge = errors.New("graph: duplicate edge")
)

// Graph is a simple undirected graph on nodes 0..N-1.
//
// The zero value is an empty graph with no nodes; use New to create a
// graph with a fixed node count.
type Graph struct {
	adj [][]int32
	m   int
}

// New returns an empty undirected graph with n nodes and no edges.
// n must be non-negative; New panics otherwise because a negative node
// count is a programming error, not a runtime condition.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{adj: make([][]int32, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// check validates that u is a legal node identifier.
func (g *Graph) check(u int) error {
	if u < 0 || u >= len(g.adj) {
		return fmt.Errorf("%w: %d (n=%d)", ErrNodeRange, u, len(g.adj))
	}
	return nil
}

// AddEdge inserts the undirected edge {u, v}. It returns ErrSelfLoop for
// u == v, ErrNodeRange for out-of-range endpoints, and ErrDuplicateEdge
// if the edge is already present.
func (g *Graph) AddEdge(u, v int) error {
	if err := g.check(u); err != nil {
		return err
	}
	if err := g.check(v); err != nil {
		return err
	}
	if u == v {
		return fmt.Errorf("%w: %d", ErrSelfLoop, u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("%w: {%d,%d}", ErrDuplicateEdge, u, v)
	}
	g.insertArc(u, v)
	g.insertArc(v, u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge but panics on error. It is intended for
// generators and tests where the edge set is known to be valid.
func (g *Graph) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddEdgeIfAbsent inserts {u,v} unless it already exists or is a self
// loop; it reports whether the edge was inserted. Out-of-range endpoints
// still return an error.
func (g *Graph) AddEdgeIfAbsent(u, v int) (bool, error) {
	if err := g.check(u); err != nil {
		return false, err
	}
	if err := g.check(v); err != nil {
		return false, err
	}
	if u == v || g.HasEdge(u, v) {
		return false, nil
	}
	g.insertArc(u, v)
	g.insertArc(v, u)
	g.m++
	return true, nil
}

// insertArc inserts v into u's sorted adjacency list.
func (g *Graph) insertArc(u, v int) {
	lst := g.adj[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = int32(v)
	g.adj[u] = lst
}

// HasEdge reports whether the undirected edge {u, v} exists. Out-of-range
// arguments report false.
func (g *Graph) HasEdge(u, v int) bool {
	if u < 0 || u >= len(g.adj) || v < 0 || v >= len(g.adj) {
		return false
	}
	lst := g.adj[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	return i < len(lst) && lst[i] == int32(v)
}

// Degree returns the degree of u. It panics on out-of-range u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// Neighbors returns a copy of u's neighbor list in increasing order.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, len(g.adj[u]))
	for i, v := range g.adj[u] {
		out[i] = int(v)
	}
	return out
}

// EachNeighbor calls fn for every neighbor of u in increasing order,
// stopping early if fn returns false. It avoids the allocation of
// Neighbors for hot paths.
func (g *Graph) EachNeighbor(u int, fn func(v int) bool) {
	for _, v := range g.adj[u] {
		if !fn(int(v)) {
			return
		}
	}
}

// Edges returns all undirected edges as pairs [2]int{u, v} with u < v,
// sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if int(v) > u {
				out = append(out, [2]int{u, int(v)})
			}
		}
	}
	return out
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	min := len(g.adj[0])
	for _, lst := range g.adj[1:] {
		if len(lst) < min {
			min = len(lst)
		}
	}
	return min
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for _, lst := range g.adj {
		if len(lst) > max {
			max = len(lst)
		}
	}
	return max
}

// AverageDegree returns 2m/n, or 0 for an empty graph.
func (g *Graph) AverageDegree() float64 {
	if len(g.adj) == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(len(g.adj))
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	for u, lst := range g.adj {
		c.adj[u] = append([]int32(nil), lst...)
	}
	return c
}

// Equal reports whether g and h have identical node and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.N() != h.N() || g.M() != h.M() {
		return false
	}
	for u := range g.adj {
		if len(g.adj[u]) != len(h.adj[u]) {
			return false
		}
		for i, v := range g.adj[u] {
			if h.adj[u][i] != v {
				return false
			}
		}
	}
	return true
}

// String returns a short human-readable summary such as "Graph(n=8, m=12)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}

// DOT renders the graph in Graphviz DOT format, useful for debugging and
// documentation.
func (g *Graph) DOT(name string) string {
	if name == "" {
		name = "G"
	}
	s := "graph " + name + " {\n"
	for u := 0; u < g.N(); u++ {
		s += fmt.Sprintf("  %d;\n", u)
	}
	for _, e := range g.Edges() {
		s += fmt.Sprintf("  %d -- %d;\n", e[0], e[1])
	}
	return s + "}\n"
}
