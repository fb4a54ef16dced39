package graph

import (
	"fmt"
	"sort"
)

// Digraph is a simple directed graph on nodes 0..N-1 with an optional set
// of disabled nodes. It is the representation of the surviving route
// graph R(G,ρ)/F: disabled nodes model faulty nodes, which are excluded
// from distance and diameter computations entirely.
type Digraph struct {
	out      [][]int32
	disabled *Bitset
	arcs     int
}

// NewDigraph returns an empty digraph with n nodes, all enabled.
func NewDigraph(n int) *Digraph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Digraph{out: make([][]int32, n)}
}

// N returns the number of nodes (enabled or not).
func (d *Digraph) N() int { return len(d.out) }

// Arcs returns the number of directed edges.
func (d *Digraph) Arcs() int { return d.arcs }

// Disable marks u as disabled (faulty). Arcs incident to u remain stored
// but are ignored by traversals.
func (d *Digraph) Disable(u int) {
	if d.disabled == nil {
		d.disabled = NewBitset(len(d.out))
	}
	d.disabled.Add(u)
}

// Disabled reports whether u is disabled.
func (d *Digraph) Disabled(u int) bool { return d.disabled.Has(u) }

// EnabledCount returns the number of enabled nodes.
func (d *Digraph) EnabledCount() int {
	if d.disabled == nil {
		return len(d.out)
	}
	return len(d.out) - d.disabled.Count()
}

// AddArc inserts the directed edge u→v if absent; duplicate insertions
// are ignored so that routing components can overlap safely.
func (d *Digraph) AddArc(u, v int) {
	if u < 0 || u >= len(d.out) || v < 0 || v >= len(d.out) || u == v {
		panic(fmt.Sprintf("graph: bad arc %d->%d (n=%d)", u, v, len(d.out)))
	}
	lst := d.out[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	if i < len(lst) && lst[i] == int32(v) {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = int32(v)
	d.out[u] = lst
	d.arcs++
}

// HasArc reports whether u→v is present (regardless of disabled status).
func (d *Digraph) HasArc(u, v int) bool {
	if u < 0 || u >= len(d.out) || v < 0 || v >= len(d.out) {
		return false
	}
	lst := d.out[u]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= int32(v) })
	return i < len(lst) && lst[i] == int32(v)
}

// OutNeighbors returns a copy of u's out-neighbor list (including arcs
// leading to disabled nodes; traversals filter them).
func (d *Digraph) OutNeighbors(u int) []int {
	out := make([]int, len(d.out[u]))
	for i, v := range d.out[u] {
		out[i] = int(v)
	}
	return out
}

// BFSDistances returns hop distances from src to all nodes along directed
// arcs, skipping disabled nodes; Unreachable (-1) marks unreachable or
// disabled nodes.
func (d *Digraph) BFSDistances(src int) []int {
	n := len(d.out)
	dist := make([]int, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	if src < 0 || src >= n || d.disabled.Has(src) {
		return dist
	}
	queue := make([]int32, 0, n)
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		du := dist[u]
		for _, v32 := range d.out[u] {
			v := int(v32)
			if dist[v] != Unreachable || d.disabled.Has(v) {
				continue
			}
			dist[v] = du + 1
			queue = append(queue, v32)
		}
	}
	return dist
}

// Dist returns the directed distance from u to v, or Unreachable.
func (d *Digraph) Dist(u, v int) int {
	if u == v && u >= 0 && u < len(d.out) && !d.disabled.Has(u) {
		return 0
	}
	return d.BFSDistances(u)[v]
}

// Diameter returns the directed diameter over all ordered pairs of
// enabled nodes, and true; or (0, false) if some enabled node cannot
// reach some other enabled node (infinite diameter). A digraph with at
// most one enabled node has diameter 0.
func (d *Digraph) Diameter() (int, bool) {
	n := len(d.out)
	diam := 0
	for u := 0; u < n; u++ {
		if d.disabled.Has(u) {
			continue
		}
		dist := d.BFSDistances(u)
		for v := 0; v < n; v++ {
			if v == u || d.disabled.Has(v) {
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
	return diam, true
}

// String returns a short human-readable summary.
func (d *Digraph) String() string {
	return fmt.Sprintf("Digraph(n=%d, arcs=%d, disabled=%d)", d.N(), d.arcs, len(d.out)-d.EnabledCount())
}
