// Package flow implements Dinic's maximum-flow algorithm on small
// integer-capacity networks. It is the substrate for every Menger-style
// computation in the library: s–t vertex connectivity, minimum vertex
// separators, internally disjoint paths, and the paper's tree routings
// (node-disjoint paths from a node to a separating set).
//
// Networks here are unit-ish: capacities are 1 except for a handful of
// infinite arcs. Each Dinic phase labels the shortest residual s–t
// paths from both ends: breadth-first from s over residual arcs and from
// t over residual in-arcs, one layer at a time on the side whose
// frontier is smaller, until the two balls meet. The augmenting DFS
// follows the forward labels up to the last complete forward layer and
// the backward labels after it, so it enters only nodes that could reach
// t when the phase began. It pushes exactly the augmenting paths, in the
// same order, that a forward-only level graph would give: each arc it
// takes is a level-graph arc, and each one it skips leads to a node from
// which that DFS would have backed out empty-handed. On the split
// networks of the tree routings a phase usually finds a single path, and
// two balls of half the depth pop far fewer nodes than one ball out to
// t's level.
//
// A network can serve many queries: Save records its capacities,
// SetCapacity adjusts a few arcs for one query, and Restore returns it
// to the saved state. Restore copies back only the arc pairs changed
// since the last Save or Restore, which an undo list records, so a
// query costs the arcs it touches, not the whole network. MaxFlow and
// DecomposePaths reuse their scratch buffers across calls: labels carry
// a per-phase base and decomposition records a per-call stamp, so
// neither is cleared between uses.
package flow

import (
	"fmt"
	"math"
)

// Inf is the capacity used for effectively-unbounded arcs, and the
// largest capacity an arc may have.
const Inf = math.MaxInt32

// arc is half of an edge pair; arcs are stored in a flat slice with the
// reverse arc at index ^1.
type arc struct {
	to  int32
	cap int32
}

// pairFlow is DecomposePaths' record of one arc pair: the units of the
// forward arc's flow not yet assigned to a path. It is valid only in the
// call whose stamp it carries.
type pairFlow struct {
	stamp uint32
	left  int32
}

// Network is a directed flow network under construction. The zero value
// is unusable; create one with NewNetwork.
type Network struct {
	n     int
	arcs  []arc
	head  [][]int32 // arc indices leaving each node
	saved []arc     // capacities Restore returns to
	// The undo list: the arc pairs changed since the last Save or
	// Restore, each listed once, and per pair whether it is listed.
	changed []int32
	listed  []bool
	// Scratch reused across MaxFlow calls. A phase labels node v with
	// base + its distance from s (fwd) or to t (bwd); a label below base
	// is stale.
	fwd, bwd  []uint32
	base      uint32
	fq, bq    []int32 // the forward and backward balls, in BFS order
	iter      []int32
	dist, mid int32 // the phase's s–t distance and last complete forward layer
	// Scratch reused across DecomposePaths calls: the records, indexed
	// by arc pair, and the returned paths with the buffer they share.
	pairs    []pairFlow
	stamp    uint32
	paths    [][]int
	pathNode []int
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

// checkCapacity panics unless 0 <= capacity <= Inf: capacities are
// stored in 32 bits, and a larger one would wrap.
func checkCapacity(capacity int) {
	if capacity < 0 || capacity > Inf {
		panic(fmt.Sprintf("flow: capacity %d outside [0, Inf]", capacity))
	}
}

// AddArc inserts a directed arc u→v with the given capacity and returns
// its index (usable with Flow after a max-flow run). Capacity must lie
// in [0, Inf].
func (nw *Network) AddArc(u, v, capacity int) int {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("flow: arc %d->%d out of range (n=%d)", u, v, nw.n))
	}
	checkCapacity(capacity)
	id := len(nw.arcs)
	nw.arcs = append(nw.arcs, arc{to: int32(v), cap: int32(capacity)})
	nw.arcs = append(nw.arcs, arc{to: int32(u), cap: 0})
	nw.head[u] = append(nw.head[u], int32(id))
	nw.head[v] = append(nw.head[v], int32(id+1))
	nw.listed = append(nw.listed, false)
	return id
}

// Flow returns the amount of flow pushed through the arc with the given
// index after MaxFlow has run: the residual capacity of the reverse arc.
func (nw *Network) Flow(arcID int) int {
	return int(nw.arcs[arcID^1].cap)
}

// SetCapacity sets the capacity of the arc with the given index (as
// returned by AddArc) to a value in [0, Inf]. The reverse arc is left
// alone, so call it on a network without flow, such as one just
// restored.
func (nw *Network) SetCapacity(arcID, capacity int) {
	checkCapacity(capacity)
	nw.touch(int32(arcID))
	nw.arcs[arcID].cap = int32(capacity)
}

// touch puts the pair of arc id on the undo list, unless it is there.
func (nw *Network) touch(id int32) {
	if p := id >> 1; !nw.listed[p] {
		nw.listed[p] = true
		nw.changed = append(nw.changed, p)
	}
}

// Save records the current capacities of every arc as the state that
// Restore returns to.
func (nw *Network) Save() {
	nw.saved = append(nw.saved[:0], nw.arcs...)
	for _, p := range nw.changed {
		nw.listed[p] = false
	}
	nw.changed = nw.changed[:0]
}

// Restore resets every arc to the capacities recorded by the last Save,
// undoing both the flow of earlier MaxFlow calls and SetCapacity changes.
// It copies back only the arc pairs on the undo list. It panics if arcs
// were added since that Save.
func (nw *Network) Restore() {
	if len(nw.saved) != len(nw.arcs) {
		panic("flow: Restore without a Save of the current arcs")
	}
	for _, p := range nw.changed {
		nw.arcs[2*p], nw.arcs[2*p+1] = nw.saved[2*p], nw.saved[2*p+1]
		nw.listed[p] = false
	}
	nw.changed = nw.changed[:0]
}

// SwapArcs makes ids the list of arcs leaving node u, the arcs that
// every search of the network scans at u in the given order, and
// returns the list u had. Each id must be an arc leaving u (one with
// tail u). Swapping in a subset of u's arcs, in their order, hides the
// others from MaxFlow, MinCutReachable and DecomposePaths; the answers
// are unchanged as long as every hidden arc and its reverse have no
// residual capacity. The network keeps ids, unchanged by the caller,
// until the returned list is swapped back, which must happen before
// arcs are added at u.
func (nw *Network) SwapArcs(u int, ids []int32) []int32 {
	old := nw.head[u]
	nw.head[u] = ids
	return old
}

// phase labels the shortest residual s–t paths of one Dinic phase from
// both ends and reports whether t is reachable. Each round grows the
// ball with the smaller frontier by one layer: forward from s over arcs
// with residual capacity, or backward from t over residual in-arcs (arc
// id^1 of each arc id leaving a node). The first node labelled from both
// sides fixes dist, the s–t distance, and mid, the deepest forward layer
// labelled in full: backward labels are complete up to dist−mid−1, so
// together the two sides label every node of every shortest path.
// Labelling a node resets its DFS iterator, so nothing is cleared per
// phase.
func (nw *Network) phase(s, t int) bool {
	span := uint32(nw.n)
	if nw.base > math.MaxUint32-2*span { // the next labels would wrap
		clear(nw.fwd)
		clear(nw.bwd)
		nw.base = 0
	}
	nw.base += span
	base, fwd, bwd, iter, arcs, head := nw.base, nw.fwd, nw.bwd, nw.iter, nw.arcs, nw.head
	fwd[s], bwd[t] = base, base
	iter[s] = 0
	fq := append(nw.fq[:0], int32(s))
	bq := append(nw.bq[:0], int32(t))
	var f0, b0 int  // the last complete layer of each ball starts here
	var a, b uint32 // and lies at this distance from s, or to t
	for f0 < len(fq) && b0 < len(bq) {
		if len(fq)-f0 <= len(bq)-b0 {
			layer := fq[f0:]
			f0 = len(fq)
			for _, u := range layer {
				for _, id := range head[u] {
					v := arcs[id].to
					if arcs[id].cap <= 0 || fwd[v] >= base {
						continue
					}
					fwd[v], iter[v] = base+a+1, 0
					if bwd[v] >= base {
						nw.dist, nw.mid = int32(a+1+bwd[v]-base), int32(a)
						nw.fq, nw.bq = fq, bq
						return true
					}
					fq = append(fq, v)
				}
			}
			a++
		} else {
			layer := bq[b0:]
			b0 = len(bq)
			for _, v := range layer {
				for _, id := range head[v] {
					w := arcs[id].to
					if arcs[id^1].cap <= 0 || bwd[w] >= base {
						continue
					}
					bwd[w], iter[w] = base+b+1, 0
					if fwd[w] >= base {
						nw.dist, nw.mid = int32(fwd[w]-base+b+1), int32(a)
						nw.fq, nw.bq = fq, bq
						return true
					}
					bq = append(bq, w)
				}
			}
			b++
		}
	}
	nw.fq, nw.bq = fq, bq
	return false
}

// augment pushes up to limit units of flow from u, at position j of a
// shortest s–t path, toward t. Below mid it takes arcs into forward
// layer j+1; from mid on, arcs into backward layer dist−j−1. Either way
// the head is at distance j+1 from s, and from mid on it could also
// still reach t when the phase began.
func (nw *Network) augment(u, j, limit int32) int32 {
	if j == nw.dist {
		return limit
	}
	lab, want := nw.fwd, nw.base+uint32(j)+1
	if j >= nw.mid {
		lab, want = nw.bwd, nw.base+uint32(nw.dist-j-1)
	}
	head := nw.head[u]
	for i := nw.iter[u]; int(i) < len(head); i++ {
		id := head[i]
		a := &nw.arcs[id]
		if a.cap <= 0 || lab[a.to] != want {
			continue
		}
		got := nw.augment(a.to, j+1, min(limit, a.cap))
		if got > 0 {
			nw.touch(id)
			a.cap -= got
			nw.arcs[id^1].cap += got
			nw.iter[u] = i
			return got
		}
	}
	nw.iter[u] = int32(len(head))
	return 0
}

// MaxFlow computes the maximum s–t flow, stopping early once the flow
// reaches limit (pass Inf for the true maximum). Each phase labels the
// shortest residual paths from both ends and saturates them with one
// augmenting DFS per path (see the package comment); the paths and the
// residual network are those of a forward-only Dinic. It leaves the
// flow in the network's residual capacities, for Flow, MinCutReachable
// and DecomposePaths; a further call augments that flow. Restore the
// saved capacities to start a fresh query on the same network.
func (nw *Network) MaxFlow(s, t, limit int) int {
	if s == t {
		return 0
	}
	if len(nw.fwd) != nw.n {
		nw.fwd = make([]uint32, nw.n)
		nw.bwd = make([]uint32, nw.n)
		nw.iter = make([]int32, nw.n)
		nw.fq = make([]int32, 0, nw.n)
		nw.bq = make([]int32, 0, nw.n)
	}
	total := 0
	for total < limit && nw.phase(s, t) {
		for total < limit {
			got := nw.augment(int32(s), 0, int32(min(limit-total, Inf)))
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
// library (each interior node carries at most one unit). A forward arc's
// flow is read from its reverse residual the first time a walk reaches
// it, so a call costs the arcs its walks scan, not the whole network.
//
// The paths share one buffer that the network reuses: they stay valid
// until the next DecomposePaths call on this network, so copy any path
// that must outlive it.
func (nw *Network) DecomposePaths(s, t, max int) [][]int {
	if len(nw.pairs) != len(nw.arcs)/2 {
		nw.pairs = make([]pairFlow, len(nw.arcs)/2)
	}
	nw.stamp++
	if nw.stamp == 0 { // the stamp wrapped: forget every record
		clear(nw.pairs)
		nw.stamp = 1
	}
	paths, buf := nw.paths[:0], nw.pathNode[:0]
	for max < 0 || len(paths) < max {
		start := len(buf)
		buf = append(buf, s)
		u := s
		ok := false
		for steps := 0; steps <= len(nw.arcs); steps++ {
			if u == t {
				ok = true
				break
			}
			advanced := false
			for _, id := range nw.head[u] {
				if id&1 == 1 {
					continue
				}
				p := &nw.pairs[id>>1]
				if p.stamp != nw.stamp {
					p.stamp, p.left = nw.stamp, 0
					if f := nw.arcs[id^1].cap; f > 0 { // reverse residual == pushed flow
						p.left = f
					}
				}
				if p.left == 0 {
					continue
				}
				p.left--
				u = int(nw.arcs[id].to)
				buf = append(buf, u)
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
		paths = append(paths, buf[start:len(buf):len(buf)])
	}
	nw.paths, nw.pathNode = paths, buf
	if len(paths) == 0 {
		return nil
	}
	return paths
}
