// Package oracle keeps the reference implementation of the connectivity
// primitives that the tree-routing constructions are built on: a network
// rebuilt from the graph's edge list for every query, and Dinic's
// algorithm without sink-level truncation or scratch reuse. It is the
// differential oracle for connectivity.Split, and the baseline of the
// construction benchmarks. Only tests and benchmarks import it.
package oracle

import (
	"errors"
	"fmt"

	"ftroute/internal/graph"
)

// ErrTooFewPaths mirrors connectivity.ErrTooFewPaths; callers compare
// error presence and messages, not identity.
var ErrTooFewPaths = errors.New("connectivity: too few disjoint paths")

const inf = 1<<31 - 1

type arc struct {
	to  int32
	cap int32
}

// network is a Dinic max-flow network used for exactly one query.
type network struct {
	n     int
	arcs  []arc
	head  [][]int32
	level []int32
	iter  []int32
}

func newNetwork(n int) *network { return &network{n: n, head: make([][]int32, n)} }

func (nw *network) addArc(u, v, capacity int) {
	id := len(nw.arcs)
	nw.arcs = append(nw.arcs, arc{to: int32(v), cap: int32(capacity)}, arc{to: int32(u)})
	nw.head[u] = append(nw.head[u], int32(id))
	nw.head[v] = append(nw.head[v], int32(id+1))
}

// bfsLevels labels every node reachable from s, however far beyond t.
func (nw *network) bfsLevels(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := make([]int32, 0, nw.n)
	nw.level[s] = 0
	queue = append(queue, int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range nw.head[u] {
			a := nw.arcs[id]
			if a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *network) dfsAugment(u, t int, limit int32) int32 {
	if u == t {
		return limit
	}
	for ; nw.iter[u] < int32(len(nw.head[u])); nw.iter[u]++ {
		id := nw.head[u][nw.iter[u]]
		a := &nw.arcs[id]
		if a.cap <= 0 || nw.level[a.to] != nw.level[u]+1 {
			continue
		}
		got := nw.dfsAugment(int(a.to), t, min(limit, a.cap))
		if got > 0 {
			a.cap -= got
			nw.arcs[id^1].cap += got
			return got
		}
	}
	return 0
}

func (nw *network) maxFlow(s, t, limit int) int {
	if s == t {
		return 0
	}
	nw.level = make([]int32, nw.n)
	nw.iter = make([]int32, nw.n)
	total := 0
	for total < limit && nw.bfsLevels(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for total < limit {
			got := nw.dfsAugment(s, t, int32(min(limit-total, inf)))
			if got == 0 {
				break
			}
			total += int(got)
		}
	}
	return total
}

func (nw *network) minCutReachable(s int) []bool {
	seen := make([]bool, nw.n)
	queue := []int{s}
	seen[s] = true
	for head := 0; head < len(queue); head++ {
		for _, id := range nw.head[queue[head]] {
			a := nw.arcs[id]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, int(a.to))
			}
		}
	}
	return seen
}

func (nw *network) decomposePaths(s, t, max int) [][]int {
	flowLeft := make([]int32, len(nw.arcs))
	for id := 0; id < len(nw.arcs); id += 2 {
		if f := nw.arcs[id^1].cap; f > 0 {
			flowLeft[id] = f
		}
	}
	var paths [][]int
	for max < 0 || len(paths) < max {
		path := []int{s}
		u := s
		ok := false
		for steps := 0; steps <= len(nw.arcs); steps++ {
			if u == t {
				ok = true
				break
			}
			advanced := false
			for _, id := range nw.head[u] {
				if id%2 == 1 || flowLeft[id] == 0 {
					continue
				}
				flowLeft[id]--
				u = int(nw.arcs[id].to)
				path = append(path, u)
				advanced = true
				break
			}
			if !advanced {
				break
			}
		}
		if !ok {
			break
		}
		paths = append(paths, path)
	}
	return paths
}

func inNode(v int) int  { return 2 * v }
func outNode(v int) int { return 2*v + 1 }

func unsplit(rp []int) []int {
	var out []int
	for _, x := range rp {
		if v := x / 2; len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// splitNetwork builds the vertex-split network of g with unbounded
// internal arcs at the uncap nodes and edge arcs of capacity edgeCap.
func splitNetwork(g *graph.Graph, edgeCap int, uncap ...int) *network {
	n := g.N()
	nw := newNetwork(2 * n)
	for v := 0; v < n; v++ {
		c := 1
		for _, u := range uncap {
			if u == v {
				c = inf
			}
		}
		nw.addArc(inNode(v), outNode(v), c)
	}
	for _, e := range g.Edges() {
		nw.addArc(outNode(e[0]), inNode(e[1]), edgeCap)
		nw.addArc(outNode(e[1]), inNode(e[0]), edgeCap)
	}
	return nw
}

// DisjointPathsToSet is connectivity.DisjointPathsToSet as a network
// built for the one query: member sink arcs are added in member order
// between the internal arcs and the edge arcs. It assumes x and the
// members are distinct nodes of g.
func DisjointPathsToSet(g *graph.Graph, x int, members []int, k int) ([][]int, error) {
	n := g.N()
	inM := make([]bool, n)
	for _, m := range members {
		if m == x {
			return nil, fmt.Errorf("connectivity: x=%d is a member of the target set", x)
		}
		inM[m] = true
	}
	if k <= 0 {
		return nil, nil
	}
	nw := newNetwork(2*n + 1)
	sink := 2 * n
	for v := 0; v < n; v++ {
		c := 1
		switch {
		case v == x:
			c = inf
		case inM[v]:
			c = 0
		}
		nw.addArc(inNode(v), outNode(v), c)
	}
	for _, m := range members {
		nw.addArc(inNode(m), sink, 1)
	}
	for _, e := range g.Edges() {
		nw.addArc(outNode(e[0]), inNode(e[1]), 1)
		nw.addArc(outNode(e[1]), inNode(e[0]), 1)
	}
	got := nw.maxFlow(outNode(x), sink, k)
	if got < k {
		return nil, fmt.Errorf("%w: want %d node-disjoint paths from %d to set, have %d", ErrTooFewPaths, k, x, got)
	}
	raw := nw.decomposePaths(outNode(x), sink, k)
	paths := make([][]int, len(raw))
	for i, rp := range raw {
		p := unsplit(rp[:len(rp)-1])
		if end := p[len(p)-1]; len(p) > 2 && g.HasEdge(x, end) {
			p = []int{x, end}
		}
		paths[i] = p
	}
	return paths, nil
}

// Finder answers DisjointPathsToSet queries on one graph, the shape of
// connectivity.Split, by building a network for every query.
type Finder struct{ G *graph.Graph }

// DisjointPathsToSet calls the package-level DisjointPathsToSet on f.G.
func (f Finder) DisjointPathsToSet(x int, members []int, k int) ([][]int, error) {
	return DisjointPathsToSet(f.G, x, members, k)
}

// DisjointPaths is connectivity.DisjointPaths on a network built for the
// one query. It assumes s != t.
func DisjointPaths(g *graph.Graph, s, t, k int) ([][]int, error) {
	nw := splitNetwork(g, 1, s, t)
	got := nw.maxFlow(outNode(s), inNode(t), k)
	if got < k {
		return nil, fmt.Errorf("%w: want %d, have %d between %d and %d", ErrTooFewPaths, k, got, s, t)
	}
	raw := nw.decomposePaths(outNode(s), inNode(t), k)
	paths := make([][]int, len(raw))
	for i, rp := range raw {
		paths[i] = unsplit(rp)
	}
	return paths, nil
}

// stSeparator returns κ(s, t) and the minimum separator its flow leaves,
// for distinct non-adjacent s and t.
func stSeparator(g *graph.Graph, s, t int) (int, []int) {
	nw := splitNetwork(g, inf, s, t)
	k := nw.maxFlow(outNode(s), inNode(t), inf)
	seen := nw.minCutReachable(outNode(s))
	var cut []int
	for v := 0; v < g.N(); v++ {
		if v != s && v != t && seen[inNode(v)] && !seen[outNode(v)] {
			cut = append(cut, v)
		}
	}
	return k, cut
}

// VertexConnectivity is connectivity.VertexConnectivity with an uncapped
// flow on a fresh network for every probed pair. Its error results are
// reduced to ok=false: complete graphs and graphs with fewer than two
// nodes.
func VertexConnectivity(g *graph.Graph) (k int, sep []int, ok bool) {
	n := g.N()
	if n <= 1 {
		return max(0, n-1), nil, false
	}
	if !g.IsConnected(nil) {
		return 0, []int{}, true
	}
	v := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) < g.Degree(v) {
			v = u
		}
	}
	best := n - 1
	var bestPair [2]int
	havePair := false
	consider := func(s, t int) {
		if g.HasEdge(s, t) || s == t {
			return
		}
		if k, _ := stSeparator(g, s, t); k < best || !havePair {
			best, bestPair, havePair = k, [2]int{s, t}, true
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
		return n - 1, nil, false
	}
	_, sep = stSeparator(g, bestPair[0], bestPair[1])
	return best, sep, true
}
