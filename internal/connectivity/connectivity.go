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
	"runtime"
	"sync"

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
// κ(G) is the minimum max-flow over the pairs of probePairs. The pairs
// are cut into one block of consecutive pairs per worker (see Workers),
// and each worker scans its block on its own Split, capping each flow at
// the smallest value its block has found so far: a capped flow returns
// min(κ(s,t), best), which changes neither the block's minimum nor the
// first pair in it that attains it. So the first block with the least
// minimum holds the first pair attaining κ, and its uncapped flow yields
// the same separator at any worker count.
func VertexConnectivity(g *graph.Graph) (int, []int, error) {
	n := g.N()
	if n <= 1 {
		return maxInt(0, n-1), nil, ErrComplete
	}
	if !g.IsConnected(nil) {
		return 0, []int{}, nil
	}
	var pairs [][2]int
	for s, t := range probePairs(g) {
		pairs = append(pairs, [2]int{s, t})
	}
	if len(pairs) == 0 {
		// No non-adjacent pair anywhere we probed; the graph is complete.
		return n - 1, nil, ErrComplete
	}
	type blockMin struct {
		k, at int
		sp    *Split
	}
	mins := make([]blockMin, Workers(len(pairs)))
	var wg sync.WaitGroup
	for w := range mins {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every non-adjacent pair has at most n-2 disjoint paths, so
			// the block's first capped flow is exact.
			m := blockMin{k: n - 1, sp: newSplit(g, flow.Inf)}
			for i := w * len(pairs) / len(mins); i < (w+1)*len(pairs)/len(mins); i++ {
				if k, _ := m.sp.stFlow(pairs[i][0], pairs[i][1], m.k, false); k < m.k {
					m.k, m.at = k, i
				}
			}
			mins[w] = m
		}()
	}
	wg.Wait()
	best := mins[0]
	for _, m := range mins[1:] {
		if m.k < best.k {
			best = m
		}
	}
	_, sep := best.sp.stFlow(pairs[best.at][0], pairs[best.at][1], flow.Inf, true)
	return best.k, sep, nil
}

// jobsPerWorker is the least number of independent flow jobs worth a
// worker of its own; shorter job lists run on one worker.
const jobsPerWorker = 16

// Workers returns the number of workers that n independent flow jobs
// are spread over: one per jobsPerWorker jobs, at least one and at most
// GOMAXPROCS. VertexConnectivity's probe flows and the constructions'
// tree routings use it.
func Workers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/jobsPerWorker))
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
