package connectivity

import "ftroute/internal/graph"

// DisjointPathsToSet implements the primitive behind the paper's tree
// routings (Lemma 2): it returns k paths from x to k distinct nodes of
// the set M such that
//
//   - the paths are pairwise node-disjoint except at x,
//   - every internal node of every path lies outside M (each path stops
//     at its *first* node of M), and
//   - if x has a direct edge to the endpoint of a path, the path is that
//     single edge (the "direct edge shortcut" required by the definition
//     of tree routings).
//
// x must not be in M, and x and the members must be nodes of g with no
// member repeated; otherwise it returns an error. If fewer than k such
// paths exist (which cannot happen when M separates x from some node and
// the graph is k-connected), it returns ErrTooFewPaths.
//
// Each call builds the split network of g. To issue many queries on one
// graph, build a Split once and call its DisjointPathsToSet.
func DisjointPathsToSet(g *graph.Graph, x int, members []int, k int) ([][]int, error) {
	return NewSplit(g).DisjointPathsToSet(x, members, k)
}
