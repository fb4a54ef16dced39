package connectivity

import (
	"fmt"

	"ftroute/internal/flow"
	"ftroute/internal/graph"
)

// inNode and outNode map original node ids to the split network's ids.
func inNode(v int) int  { return 2 * v }
func outNode(v int) int { return 2*v + 1 }

// Split is the vertex-split flow network of one graph, built once and
// reused by every query on that graph. Node v becomes v_in → v_out with
// capacity 1, each undirected edge {u,v} becomes u_out → v_in and
// v_out → u_in, and a super-sink (id 2n) is fed by one arc from every
// v_in at capacity 0.
//
// The arcs are added node by node (v's internal arc, then v's sink arc)
// and then edge by edge in Edges() order, so every split node lists its
// arcs in the same order as a network built for a single query. Flow
// never crosses an arc of capacity 0, so the sink arcs a query leaves
// closed change neither the max flow nor the paths it decomposes into.
// A query opens the few arcs it needs and restores the saved capacities
// when it is done.
//
// A Split is not safe for concurrent use; give each goroutine its own.
type Split struct {
	g      *graph.Graph
	nw     *flow.Network
	sink   int
	member []bool // scratch: the target set of the current query
}

// NewSplit builds the split network of g for path queries: edge arcs
// have capacity 1, so a direct x–y edge carries at most one path.
func NewSplit(g *graph.Graph) *Split { return newSplit(g, 1) }

// newSplit builds the split network with edge arcs of capacity edgeCap.
// Pass flow.Inf for separator queries on non-adjacent s and t: every
// minimum cut then consists of internal arcs, so the vertex separator
// read off the cut is exact.
func newSplit(g *graph.Graph, edgeCap int) *Split {
	n := g.N()
	nw := flow.NewNetwork(2*n + 1)
	for v := 0; v < n; v++ {
		nw.AddArc(inNode(v), outNode(v), 1) // arc id 4v
		nw.AddArc(inNode(v), 2*n, 0)        // arc id 4v+2
	}
	for _, e := range g.Edges() {
		nw.AddArc(outNode(e[0]), inNode(e[1]), edgeCap)
		nw.AddArc(outNode(e[1]), inNode(e[0]), edgeCap)
	}
	nw.Save()
	return &Split{g: g, nw: nw, sink: 2 * n, member: make([]bool, n)}
}

// internalArc and sinkArc are the arc ids of v's internal and sink arcs.
func internalArc(v int) int { return 4 * v }
func sinkArc(v int) int     { return 4*v + 2 }

// checkNode rejects a node id outside g.
func checkNode(g *graph.Graph, v int) error {
	if v < 0 || v >= g.N() {
		return fmt.Errorf("%w: %d (n=%d)", graph.ErrNodeRange, v, g.N())
	}
	return nil
}

// DisjointPathsToSet is the Split form of the package-level
// DisjointPathsToSet, which documents the contract. Out-of-range nodes
// and repeated members return an error.
func (s *Split) DisjointPathsToSet(x int, members []int, k int) ([][]int, error) {
	if err := checkNode(s.g, x); err != nil {
		return nil, fmt.Errorf("connectivity: source: %w", err)
	}
	defer func() {
		for _, m := range members {
			if m >= 0 && m < len(s.member) {
				s.member[m] = false
			}
		}
	}()
	for _, m := range members {
		if err := checkNode(s.g, m); err != nil {
			return nil, fmt.Errorf("connectivity: target set: %w", err)
		}
		if m == x {
			return nil, fmt.Errorf("connectivity: x=%d is a member of the target set", x)
		}
		if s.member[m] {
			return nil, fmt.Errorf("connectivity: node %d is repeated in the target set", m)
		}
		s.member[m] = true
	}
	if k <= 0 {
		return nil, nil
	}
	// x's internal arc is unbounded so x can anchor k paths. Each member
	// feeds the sink once, and its internal arc is closed so that a path
	// ends at the first member it reaches.
	nw := s.nw
	defer nw.Restore()
	nw.SetCapacity(internalArc(x), flow.Inf)
	for _, m := range members {
		nw.SetCapacity(internalArc(m), 0)
		nw.SetCapacity(sinkArc(m), 1)
	}
	got := nw.MaxFlow(outNode(x), s.sink, k)
	if got < k {
		return nil, fmt.Errorf("%w: want %d node-disjoint paths from %d to set, have %d", ErrTooFewPaths, k, x, got)
	}
	raw := nw.DecomposePaths(outNode(x), s.sink, k)
	paths := make([][]int, len(raw))
	for i, rp := range raw {
		// Drop the super-sink element before unsplitting.
		p := unsplit(rp[:len(rp)-1])
		// Direct edge shortcut: if x is adjacent to the endpoint, the
		// route is the single edge. This preserves mutual disjointness
		// because the replacement uses no nodes beyond x and the
		// endpoint, both already on the original path.
		end := p[len(p)-1]
		if len(p) > 2 && s.g.HasEdge(x, end) {
			p = []int{x, end}
		}
		paths[i] = p
	}
	return paths, nil
}

// DisjointPaths is the Split form of the package-level DisjointPaths,
// which documents the contract.
func (s *Split) DisjointPaths(src, dst, k int) ([][]int, error) {
	if err := checkPair(s.g, src, dst); err != nil {
		return nil, err
	}
	nw := s.nw
	defer nw.Restore()
	nw.SetCapacity(internalArc(src), flow.Inf)
	nw.SetCapacity(internalArc(dst), flow.Inf)
	got := nw.MaxFlow(outNode(src), inNode(dst), k)
	if got < k {
		return nil, fmt.Errorf("%w: want %d, have %d between %d and %d", ErrTooFewPaths, k, got, src, dst)
	}
	raw := nw.DecomposePaths(outNode(src), inNode(dst), k)
	paths := make([][]int, len(raw))
	for i, rp := range raw {
		paths[i] = unsplit(rp)
	}
	return paths, nil
}

// stFlow returns min(limit, κ(src, dst)), the number of internally
// node-disjoint src–dst paths capped at limit, for non-adjacent src and
// dst. The Split must have unbounded edge arcs. If cut is true it also
// returns the minimum separator the uncapped flow leaves.
func (s *Split) stFlow(src, dst, limit int, cut bool) (int, []int) {
	nw := s.nw
	defer nw.Restore()
	nw.SetCapacity(internalArc(src), flow.Inf)
	nw.SetCapacity(internalArc(dst), flow.Inf)
	k := nw.MaxFlow(outNode(src), inNode(dst), limit)
	if !cut {
		return k, nil
	}
	seen := nw.MinCutReachable(outNode(src))
	var sep []int
	for v := 0; v < s.g.N(); v++ {
		// v is in the cut iff v_in is reachable but v_out is not: the
		// saturated internal arc crosses the cut.
		if v != src && v != dst && seen[inNode(v)] && !seen[outNode(v)] {
			sep = append(sep, v)
		}
	}
	return k, sep
}

// unsplit converts a path over split ids (alternating v_out, w_in, w_out,
// ...) back to original node ids, removing consecutive duplicates.
func unsplit(rp []int) []int {
	out := make([]int, 0, len(rp)/2+1)
	for _, x := range rp {
		v := x / 2
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}
