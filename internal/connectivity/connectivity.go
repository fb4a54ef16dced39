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

	"ftroute/internal/flow"
	"ftroute/internal/graph"
)

// Errors returned by the connectivity computations.
var (
	// ErrAdjacent indicates an s–t connectivity query on adjacent nodes,
	// for which internally-disjoint-path counting is unbounded.
	ErrAdjacent = errors.New("connectivity: nodes are adjacent")
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

// STConnectivity returns the maximum number of internally node-disjoint
// s–t paths (equivalently, by Menger's theorem, the minimum number of
// nodes whose removal separates s from t). s and t must be distinct and
// non-adjacent; adjacent pairs return ErrAdjacent.
func STConnectivity(g *graph.Graph, s, t int) (int, error) {
	if err := checkPair(g, s, t); err != nil {
		return 0, err
	}
	if g.HasEdge(s, t) {
		return 0, fmt.Errorf("%w: %d-%d", ErrAdjacent, s, t)
	}
	k, _ := newSplit(g, flow.Inf).stFlow(s, t, flow.Inf, false)
	return k, nil
}

// STSeparator returns a minimum set of nodes (excluding s and t) whose
// removal disconnects s from t. s and t must be non-adjacent.
func STSeparator(g *graph.Graph, s, t int) ([]int, error) {
	if err := checkPair(g, s, t); err != nil {
		return nil, err
	}
	if g.HasEdge(s, t) {
		return nil, fmt.Errorf("%w: %d-%d", ErrAdjacent, s, t)
	}
	_, cut := newSplit(g, flow.Inf).stFlow(s, t, flow.Inf, true)
	return cut, nil
}

// DisjointPaths returns k internally node-disjoint paths from s to t,
// each a node sequence starting at s and ending at t. If fewer than k
// exist it returns ErrTooFewPaths. Unlike STConnectivity, s and t may be
// adjacent; the direct edge counts as one path.
func DisjointPaths(g *graph.Graph, s, t, k int) ([][]int, error) {
	return NewSplit(g).DisjointPaths(s, t, k)
}

// VertexConnectivity returns κ(G) together with one minimum separating
// set of size κ(G). For complete graphs it returns (n-1, nil, ErrComplete)
// since no separating set exists. Disconnected graphs return κ = 0 with
// an empty separator. Graphs with fewer than two nodes return n-1
// (i.e. 0 for a single node) and ErrComplete.
//
// The algorithm fixes a minimum-degree vertex v and takes the minimum of
// (a) max-flow between v and each non-neighbor, and (b) max-flow between
// each non-adjacent pair of neighbors of v. A minimum separator S with
// |S| < deg(v)+1 either misses v — then v is separated from some
// non-neighbor — or contains v — then, S being minimal, v has neighbors
// in two different components of G−S, and some non-adjacent pair of
// neighbors of v is separated by S.
//
// All flows run on one Split, and each is capped at the smallest value
// found so far: a capped flow returns min(κ(s,t), best), which changes
// neither the minimum nor the first pair that attains it.
func VertexConnectivity(g *graph.Graph) (int, []int, error) {
	n := g.N()
	if n <= 1 {
		return maxInt(0, n-1), nil, ErrComplete
	}
	if !g.IsConnected(nil) {
		return 0, []int{}, nil
	}
	// Fix a minimum-degree vertex.
	v := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) < g.Degree(v) {
			v = u
		}
	}
	// Every non-adjacent pair has at most n-2 disjoint paths, so the first
	// pair's capped flow is exact.
	best := n - 1
	var bestPair [2]int
	havePair := false
	sp := newSplit(g, flow.Inf)
	consider := func(s, t int) {
		if g.HasEdge(s, t) || s == t {
			return
		}
		if k, _ := sp.stFlow(s, t, best, false); k < best || !havePair {
			best = k
			bestPair = [2]int{s, t}
			havePair = true
		}
	}
	for u := 0; u < n; u++ {
		if u != v {
			consider(v, u)
		}
	}
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			consider(nbrs[i], nbrs[j])
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
	n := g.N()
	if n <= k {
		return false, nil
	}
	if !g.IsConnected(nil) {
		return false, nil
	}
	v := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) < g.Degree(v) {
			v = u
		}
	}
	if g.Degree(v) < k {
		return false, nil
	}
	sp := newSplit(g, flow.Inf)
	check := func(s, t int) bool {
		if s == t || g.HasEdge(s, t) {
			return true
		}
		got, _ := sp.stFlow(s, t, k, false)
		return got >= k
	}
	for u := 0; u < n; u++ {
		if u != v && !check(v, u) {
			return false, nil
		}
	}
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !check(nbrs[i], nbrs[j]) {
				return false, nil
			}
		}
	}
	return true, nil
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
