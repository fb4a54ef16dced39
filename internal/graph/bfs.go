package graph

// Unreachable is the distance value reported for unreachable nodes.
const Unreachable = -1

// BFSDistances returns the vector of hop distances from src to every node,
// with Unreachable (-1) for nodes that cannot be reached. Nodes in the
// blocked set (which may be nil) are treated as deleted: they are never
// visited and never relayed through. If src itself is blocked, every node
// (including src) is reported unreachable.
func (g *Graph) BFSDistances(src int, blocked *Bitset) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= n || blocked.Has(src) {
		return dist
	}
	queue := make([]int32, 0, n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		du := dist[u]
		for _, v32 := range g.adj[u] {
			v := int(v32)
			if dist[v] != Unreachable || blocked.Has(v) {
				continue
			}
			dist[v] = du + 1
			queue = append(queue, v32)
		}
	}
	return dist
}

// Dist returns the hop distance between u and v, or Unreachable.
func (g *Graph) Dist(u, v int) int {
	if u == v {
		if err := g.check(u); err != nil {
			return Unreachable
		}
		return 0
	}
	return g.BFSDistances(u, nil)[v]
}

// IsConnected reports whether the graph (ignoring blocked nodes, which may
// be nil) is connected. Graphs with fewer than two unblocked nodes are
// connected. If every node is blocked the graph is trivially connected.
func (g *Graph) IsConnected(blocked *Bitset) bool {
	src := -1
	for u := 0; u < g.N(); u++ {
		if !blocked.Has(u) {
			src = u
			break
		}
	}
	if src == -1 {
		return true
	}
	dist := g.BFSDistances(src, blocked)
	for u := 0; u < g.N(); u++ {
		if !blocked.Has(u) && dist[u] == Unreachable {
			return false
		}
	}
	return true
}

// Diameter returns the diameter of the graph and true, or (0, false) if
// the graph is disconnected or has no nodes. Blocked nodes (may be nil)
// are treated as deleted.
func (g *Graph) Diameter(blocked *Bitset) (int, bool) {
	n := g.N()
	diam := 0
	seenAny := false
	for u := 0; u < n; u++ {
		if blocked.Has(u) {
			continue
		}
		seenAny = true
		dist := g.BFSDistances(u, blocked)
		for v := 0; v < n; v++ {
			if blocked.Has(v) {
				continue
			}
			if dist[v] == Unreachable {
				return 0, false
			}
			if dist[v] > diam {
				diam = dist[v]
			}
		}
	}
	if !seenAny {
		return 0, false
	}
	return diam, true
}

// Girth returns the length of the shortest cycle and true, or (0, false)
// for acyclic graphs. It runs a BFS from every node and detects the
// first cross/back edge, which is exact for unweighted graphs up to the
// standard one-off subtlety handled by taking the minimum over all roots.
func (g *Graph) Girth() (int, bool) {
	n := g.N()
	best := -1
	dist := make([]int, n)
	parent := make([]int, n)
	for root := 0; root < n; root++ {
		for i := range dist {
			dist[i] = Unreachable
		}
		dist[root] = 0
		parent[root] = -1
		queue := []int{root}
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			for _, v32 := range g.adj[u] {
				v := int(v32)
				if v == parent[u] {
					continue
				}
				if dist[v] == Unreachable {
					dist[v] = dist[u] + 1
					parent[v] = u
					queue = append(queue, v)
					continue
				}
				// Cycle through root candidate.
				cand := dist[u] + dist[v] + 1
				if best == -1 || cand < best {
					best = cand
				}
			}
		}
	}
	if best == -1 {
		return 0, false
	}
	return best, true
}
