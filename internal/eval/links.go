package eval

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// links is the link table of one graph: link i of g.Edges() is item n+i
// of the nodes-then-links id space every search enumerates. Both
// engines compile one and share it read-only with their clones.
type links struct {
	n    int
	u, v []int32         // link i -> endpoints (u < v), g.Edges() order
	id   map[int64]int32 // edgeKey(u, v) -> link i
}

func newLinks(g *graph.Graph) *links {
	edges := g.Edges()
	l := &links{
		n:  g.N(),
		u:  make([]int32, len(edges)),
		v:  make([]int32, len(edges)),
		id: make(map[int64]int32, len(edges)),
	}
	for i, e := range edges {
		l.u[i], l.v[i] = int32(e[0]), int32(e[1])
		l.id[edgeKey(e[0], e[1])] = int32(i)
	}
	return l
}

// edgeKey packs a normalized undirected edge into a map key.
func edgeKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// m returns the number of links.
func (l *links) m() int { return len(l.u) }

// item returns the item id of the link {u, v}, in either endpoint
// order, reporting false for endpoints outside 0..n-1 (which edgeKey
// would alias onto real links), self-loops and non-edges.
func (l *links) item(u, v int) (int, bool) {
	if u == v || u < 0 || v < 0 || u >= l.n || v >= l.n {
		return 0, false
	}
	id, ok := l.id[edgeKey(u, v)]
	return l.n + int(id), ok
}

// split returns the nodes and the links, as normalized faults, of the
// sorted items, both non-nil; ids past the universe are dropped.
func (l *links) split(items []int) ([]int, []routing.EdgeFault) {
	nodes, cuts := []int{}, []routing.EdgeFault{}
	for _, it := range items {
		switch i := it - l.n; {
		case i < 0:
			nodes = append(nodes, it)
		case i < len(l.u):
			cuts = append(cuts, routing.EdgeFault{U: int(l.u[i]), V: int(l.v[i])})
		}
	}
	return nodes, cuts
}

// set returns the item set of the nodes and links given; nodes outside
// 0..n-1 and links that are not edges are dropped.
func (l *links) set(nodes []int, cuts []routing.EdgeFault) *graph.Bitset {
	s := graph.NewBitset(l.n + len(l.u))
	for _, v := range nodes {
		if v >= 0 && v < l.n {
			s.Add(v)
		}
	}
	for _, c := range cuts {
		if it, ok := l.item(c.U, c.V); ok {
			s.Add(it)
		}
	}
	return s
}

// move toggles the items lo..hi-1 on which have and want differ (nil
// want is empty), so that have, which toggle keeps current, equals want
// there: consecutive similar sets stay cheap.
func move(have, want *graph.Bitset, lo, hi int, toggle func(item int, on bool)) {
	for _, it := range have.Elements() {
		if it >= lo && it < hi && !want.Has(it) {
			toggle(it, false)
		}
	}
	if want == nil {
		return
	}
	for _, it := range want.Elements() {
		if it >= lo && it < hi {
			toggle(it, true)
		}
	}
}
