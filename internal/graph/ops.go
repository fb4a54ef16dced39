package graph

// Cut vertices: the 2-connectivity check that internal/gen's tests run
// on the families they generate.

// ArticulationPoints returns the cut vertices of g (nodes whose removal
// increases the number of connected components), sorted. A graph is
// 2-connected iff it has >= 3 nodes, is connected, and has none.
func (g *Graph) ArticulationPoints() []int {
	n := g.N()
	disc := make([]int, n)
	low := make([]int, n)
	parent := make([]int, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	timer := 0
	// Iterative DFS to avoid recursion limits on long paths.
	type frame struct {
		v, idx int
	}
	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		rootChildren := 0
		stack := []frame{{v: root}}
		disc[root], low[root] = timer, timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nbrs := g.adj[f.v]
			if f.idx < len(nbrs) {
				to := int(nbrs[f.idx])
				f.idx++
				if disc[to] == -1 {
					parent[to] = f.v
					if f.v == root {
						rootChildren++
					}
					disc[to], low[to] = timer, timer
					timer++
					stack = append(stack, frame{v: to})
				} else if to != parent[f.v] && disc[to] < low[f.v] {
					low[f.v] = disc[to]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[f.v]; p != -1 {
				if low[f.v] < low[p] {
					low[p] = low[f.v]
				}
				if p != root && low[f.v] >= disc[p] {
					isCut[p] = true
				}
			}
		}
		if rootChildren >= 2 {
			isCut[root] = true
		}
	}
	var out []int
	for v, c := range isCut {
		if c {
			out = append(out, v)
		}
	}
	return out
}
