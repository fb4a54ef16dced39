// Package flow implements Dinic's maximum-flow algorithm on small
// integer-capacity networks. It is the substrate for every Menger-style
// computation in the library: s–t vertex connectivity, minimum vertex
// separators, internally disjoint paths, and the paper's tree routings
// (node-disjoint paths from a node to a separating set).
//
// Networks here are unit-ish: capacities are 1 except for a handful of
// infinite arcs, so Dinic runs in O(E·sqrt(V)) which is far more than
// fast enough for the graph sizes the reproduction uses.
//
// A network can serve many queries: Save records its capacities,
// SetCapacity adjusts a few arcs for one query, and Restore returns it
// to the saved state. MaxFlow and DecomposePaths reuse their scratch
// buffers across calls.
package flow

import (
	"fmt"
	"math"
)

// Inf is the capacity used for effectively-unbounded arcs.
const Inf = math.MaxInt32

// arc is half of an edge pair; arcs are stored in a flat slice with the
// reverse arc at index ^1.
type arc struct {
	to  int32
	cap int32
}

// Network is a directed flow network under construction. The zero value
// is unusable; create one with NewNetwork.
type Network struct {
	n     int
	arcs  []arc
	head  [][]int32 // arc indices leaving each node
	saved []arc     // capacities Restore returns to
	// Scratch reused across MaxFlow and DecomposePaths calls.
	level    []int32
	iter     []int32
	queue    []int32
	flowLeft []int32
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("flow: negative node count")
	}
	return &Network{n: n, head: make([][]int32, n)}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// AddArc inserts a directed arc u→v with the given capacity and returns
// its index (usable with Flow after a max-flow run). Capacity must be
// non-negative.
func (nw *Network) AddArc(u, v, capacity int) int {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("flow: arc %d->%d out of range (n=%d)", u, v, nw.n))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(nw.arcs)
	nw.arcs = append(nw.arcs, arc{to: int32(v), cap: int32(capacity)})
	nw.arcs = append(nw.arcs, arc{to: int32(u), cap: 0})
	nw.head[u] = append(nw.head[u], int32(id))
	nw.head[v] = append(nw.head[v], int32(id+1))
	return id
}

// Flow returns the amount of flow pushed through the arc with the given
// index after MaxFlow has run: the residual capacity of the reverse arc.
func (nw *Network) Flow(arcID int) int {
	return int(nw.arcs[arcID^1].cap)
}

// SetCapacity sets the capacity of the arc with the given index (as
// returned by AddArc). The reverse arc is left alone, so call it on a
// network without flow, such as one just restored.
func (nw *Network) SetCapacity(arcID, capacity int) {
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	nw.arcs[arcID].cap = int32(capacity)
}

// Save records the current capacities of every arc as the state that
// Restore returns to.
func (nw *Network) Save() {
	nw.saved = append(nw.saved[:0], nw.arcs...)
}

// Restore resets every arc to the capacities recorded by the last Save,
// undoing both the flow of earlier MaxFlow calls and SetCapacity changes.
// It panics if arcs were added since that Save.
func (nw *Network) Restore() {
	if len(nw.saved) != len(nw.arcs) {
		panic("flow: Restore without a Save of the current arcs")
	}
	copy(nw.arcs, nw.saved)
}

// bfsLevels builds the level graph; returns false if t is unreachable.
// It stops expanding at t's level: a node at that level other than t
// cannot reach t along strictly increasing levels, so the nodes beyond it
// would only lead dfsAugment into dead ends.
func (nw *Network) bfsLevels(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := append(nw.queue[:0], int32(s))
	nw.level[s] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if lt := nw.level[t]; lt >= 0 && nw.level[u] >= lt {
			break
		}
		for _, id := range nw.head[u] {
			a := nw.arcs[id]
			if a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	nw.queue = queue
	return nw.level[t] >= 0
}

// dfsAugment pushes up to limit units of flow from u toward t along the
// level graph.
func (nw *Network) dfsAugment(u, t int, limit int32) int32 {
	if u == t {
		return limit
	}
	for ; nw.iter[u] < int32(len(nw.head[u])); nw.iter[u]++ {
		id := nw.head[u][nw.iter[u]]
		a := &nw.arcs[id]
		if a.cap <= 0 || nw.level[a.to] != nw.level[u]+1 {
			continue
		}
		push := limit
		if a.cap < push {
			push = a.cap
		}
		got := nw.dfsAugment(int(a.to), t, push)
		if got > 0 {
			a.cap -= got
			nw.arcs[id^1].cap += got
			return got
		}
	}
	return 0
}

// MaxFlow computes the maximum s–t flow, stopping early once the flow
// reaches limit (pass Inf for the true maximum). It leaves the flow in
// the network's residual capacities, for Flow, MinCutReachable and
// DecomposePaths; a further call augments that flow. Restore the saved
// capacities to start a fresh query on the same network.
func (nw *Network) MaxFlow(s, t, limit int) int {
	if s == t {
		return 0
	}
	if len(nw.level) != nw.n {
		nw.level = make([]int32, nw.n)
		nw.iter = make([]int32, nw.n)
	}
	total := 0
	for total < limit && nw.bfsLevels(s, t) {
		for i := range nw.iter {
			nw.iter[i] = 0
		}
		for total < limit {
			got := nw.dfsAugment(s, t, int32(minInt(limit-total, Inf)))
			if got == 0 {
				break
			}
			total += int(got)
		}
	}
	return total
}

// MinCutReachable returns, after MaxFlow, the set of nodes reachable from
// s in the residual network. Arcs from reachable to unreachable nodes
// form a minimum cut.
func (nw *Network) MinCutReachable(s int) []bool {
	seen := make([]bool, nw.n)
	queue := []int{s}
	seen[s] = true
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range nw.head[u] {
			a := nw.arcs[id]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, int(a.to))
			}
		}
	}
	return seen
}

// DecomposePaths extracts flow units as node paths from s to t, consuming
// the flow recorded on forward arcs. It returns up to max paths (pass a
// negative max for all). Each returned path starts at s and ends at t.
// The decomposition is valid for the unit-capacity networks used in this
// library (each interior node carries at most one unit).
func (nw *Network) DecomposePaths(s, t, max int) [][]int {
	// flowLeft[arcID] = units of flow assigned to this forward arc.
	if len(nw.flowLeft) != len(nw.arcs) {
		nw.flowLeft = make([]int32, len(nw.arcs))
	}
	flowLeft := nw.flowLeft
	for id := 0; id < len(nw.arcs); id += 2 {
		flowLeft[id] = 0
		if f := nw.arcs[id^1].cap; f > 0 { // reverse residual == pushed flow
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
