// Package connectivity computes vertex connectivity, minimum vertex
// separators and internally node-disjoint paths, the structural
// primitives on which all of the paper's routings are built.
//
// All computations use the standard vertex-splitting reduction to
// maximum flow: each node v becomes v_in → v_out with capacity 1, each
// undirected edge {u,v} becomes u_out → v_in and v_out → u_in with
// capacity 1 (unit edge capacities suffice because node-disjoint paths
// can never share an edge).
package connectivity

import (
	"errors"
	"fmt"
	"iter"

	"ftroute/internal/flow"
	"ftroute/internal/graph"
)

// Errors returned by the connectivity computations.
var (
	// ErrTooFewPaths indicates that the requested number of disjoint
	// paths does not exist.
	ErrTooFewPaths = errors.New("connectivity: too few disjoint paths")
	// ErrComplete indicates that the graph has no non-adjacent pair, so
	// no separating set exists.
	ErrComplete = errors.New("connectivity: graph is complete")
)

// checkPair rejects an s–t query on equal or out-of-range nodes.
func checkPair(g *graph.Graph, s, t int) error {
	for _, v := range []int{s, t} {
		if err := checkNode(g, v); err != nil {
			return fmt.Errorf("connectivity: %w", err)
		}
	}
	if s == t {
		return fmt.Errorf("connectivity: s == t == %d", s)
	}
	return nil
}

// DisjointPaths returns k internally node-disjoint paths from s to t,
// each a node sequence starting at s and ending at t. If fewer than k
// exist it returns ErrTooFewPaths. s and t may be adjacent; the direct
// edge counts as one path.
func DisjointPaths(g *graph.Graph, s, t, k int) ([][]int, error) {
	return NewSplit(g).DisjointPaths(s, t, k)
}

// VertexConnectivity returns κ(G) together with one minimum separating
// set of size κ(G). For complete graphs it returns (n-1, nil, ErrComplete)
// since no separating set exists. Disconnected graphs return κ = 0 with
// an empty separator. Graphs with fewer than two nodes return n-1
// (i.e. 0 for a single node) and ErrComplete.
//
// κ(G) is the minimum max-flow over the pairs of probePairs. All flows
// run on one Split, and each is capped at the smallest value found so
// far: a capped flow returns min(κ(s,t), best), which changes neither
// the minimum nor the first pair that attains it.
func VertexConnectivity(g *graph.Graph) (int, []int, error) {
	n := g.N()
	if n <= 1 {
		return maxInt(0, n-1), nil, ErrComplete
	}
	if !g.IsConnected(nil) {
		return 0, []int{}, nil
	}
	// Every non-adjacent pair has at most n-2 disjoint paths, so the first
	// pair's capped flow is exact.
	best := n - 1
	var bestPair [2]int
	havePair := false
	sp := newSplit(g, flow.Inf)
	for s, t := range probePairs(g) {
		if k, _ := sp.stFlow(s, t, best, false); k < best || !havePair {
			best, bestPair, havePair = k, [2]int{s, t}, true
		}
	}
	if !havePair {
		// No non-adjacent pair anywhere we probed; the graph is complete.
		return n - 1, nil, ErrComplete
	}
	_, sep := sp.stFlow(bestPair[0], bestPair[1], flow.Inf, true)
	return best, sep, nil
}

// IsKConnected reports whether g is k-node-connected, using flows capped
// at k so it is cheaper than computing κ exactly. By convention, a graph
// is k-connected iff it has more than k nodes and no separator of size
// < k; complete graphs K_n are (n-1)-connected.
func IsKConnected(g *graph.Graph, k int) (bool, error) {
	if k <= 0 {
		return true, nil
	}
	if g.N() <= k || !g.IsConnected(nil) || g.MinDegree() < k {
		return false, nil
	}
	sp := newSplit(g, flow.Inf)
	for s, t := range probePairs(g) {
		if got, _ := sp.stFlow(s, t, k, false); got < k {
			return false, nil
		}
	}
	return true, nil
}

// probePairs yields, in order, the non-adjacent pairs whose flows decide
// the vertex connectivity of a graph with at least two nodes: the first
// minimum-degree vertex v with each non-neighbor, then each non-adjacent
// pair of neighbors of v. A minimum separator S with |S| < deg(v)+1
// either misses v — then v is separated from some non-neighbor — or
// contains v — then, S being minimal, v has neighbors in two different
// components of G−S, and some non-adjacent pair of neighbors of v is
// separated by S.
func probePairs(g *graph.Graph) iter.Seq2[int, int] {
	return func(yield func(s, t int) bool) {
		v := 0
		for u := 1; u < g.N(); u++ {
			if g.Degree(u) < g.Degree(v) {
				v = u
			}
		}
		for u := 0; u < g.N(); u++ {
			if u != v && !g.HasEdge(v, u) && !yield(v, u) {
				return
			}
		}
		nbrs := g.Neighbors(v)
		for i := range nbrs {
			for j := i + 1; j < len(nbrs); j++ {
				if !g.HasEdge(nbrs[i], nbrs[j]) && !yield(nbrs[i], nbrs[j]) {
					return
				}
			}
		}
	}
}

// MinimumSeparator returns a minimum separating set of g (size κ(G)).
// Complete graphs return ErrComplete.
func MinimumSeparator(g *graph.Graph) ([]int, error) {
	_, sep, err := VertexConnectivity(g)
	if err != nil {
		return nil, err
	}
	return sep, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
