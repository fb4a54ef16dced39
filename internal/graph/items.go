package graph

import "slices"

// Items is the fault-item numbering of a graph that every fault search
// and every orbit count works in: node v is item v, and link i of
// g.Edges() is item n+i. A universe is the item list a search
// enumerates — the nodes, the links, or both — and position k of a
// universe is its k-th item, so a link-only universe puts link i at
// position i. Items reads g's adjacency and assumes g is no longer
// mutated.
type Items struct {
	g     *Graph
	n     int
	first []int32 // node u -> its arcs' range in arc, len n+1
	arc   []int32 // u's arcs in g's neighbor order -> item of the link
	u, v  []int32 // link i -> endpoints (u < v)
}

// NewItems numbers the items of g.
func NewItems(g *Graph) *Items {
	n := g.N()
	it := &Items{g: g, n: n, first: make([]int32, n+1), arc: make([]int32, 0, 2*g.m), u: make([]int32, 0, g.m), v: make([]int32, 0, g.m)}
	for a, lst := range g.adj {
		it.first[a] = int32(len(it.arc))
		for _, b := range lst {
			if int(b) < a { // numbered when b's arcs were
				l, _ := it.Link(int(b), a)
				it.arc = append(it.arc, int32(l))
				continue
			}
			it.arc = append(it.arc, int32(n+len(it.u)))
			it.u = append(it.u, int32(a))
			it.v = append(it.v, b)
		}
	}
	it.first[n] = int32(len(it.arc))
	return it
}

// N returns the number of nodes.
func (it *Items) N() int { return it.n }

// M returns the number of links.
func (it *Items) M() int { return len(it.u) }

// Link returns the item of the link {u, v}, in either endpoint order.
// It reports false for endpoints outside 0..n-1, self-loops and
// non-edges.
func (it *Items) Link(u, v int) (int, bool) {
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= it.n {
		return 0, false
	}
	i, ok := slices.BinarySearch(it.g.adj[u], int32(v))
	if !ok {
		return 0, false
	}
	return int(it.arc[int(it.first[u])+i]), true
}

// Arcs returns u's neighbors in increasing order, g's own adjacency,
// and at the same index the item of the link to each. Both slices are
// shared; callers must not mutate them.
func (it *Items) Arcs(u int) (nbrs, links []int32) {
	return it.g.adj[u], it.arc[it.first[u]:it.first[u+1]]
}

// Ends returns the endpoints (u < v) of a link item, reporting false
// for node items and ids past the links.
func (it *Items) Ends(item int) (int, int, bool) {
	i := item - it.n
	if i < 0 || i >= len(it.u) {
		return 0, 0, false
	}
	return int(it.u[i]), int(it.v[i]), true
}

// Universe lists the items of the nodes, the links, or both, in id
// order.
func (it *Items) Universe(nodes, links bool) []int {
	var items []int
	for x := 0; x < it.n+len(it.u); x++ {
		if x < it.n && nodes || x >= it.n && links {
			items = append(items, x)
		}
	}
	return items
}

// Lift lifts node permutations onto the positions of a universe: the
// lift of p maps the position of each item to the position of its
// image under p, so the orbits of the lifted generators of Aut(g) are
// the link or mixed-item orbits (ftroute orbits, E20). It reports
// false, and lifts nothing, when some p is not an automorphism of g:
// not a bijection of 0..n-1, or mapping a link onto a non-edge.
func (it *Items) Lift(perms [][]int, nodes, links bool) ([][]int, bool) {
	at := 0 // the position of link 0
	if nodes {
		at = it.n
	}
	out := make([][]int, len(perms))
	for k, p := range perms {
		if len(p) != it.n {
			return nil, false
		}
		seen := NewBitset(it.n)
		for _, x := range p {
			if x < 0 || x >= it.n || seen.Has(x) {
				return nil, false
			}
			seen.Add(x)
		}
		out[k] = append(make([]int, 0, at+len(it.u)), p[:at]...)
		for i := range it.u {
			j, ok := it.Link(p[it.u[i]], p[it.v[i]])
			if !ok {
				return nil, false
			}
			if links {
				out[k] = append(out[k], at+j-it.n)
			}
		}
	}
	return out, true
}

// Components returns the connected components of g minus the nodes and
// links in blocked (by item id; nil blocks nothing, and a bitset of
// capacity n blocks nodes only), each sorted increasingly, ordered by
// smallest member.
func (it *Items) Components(blocked *Bitset) [][]int {
	seen := NewBitset(it.n)
	var comps [][]int
	for s := 0; s < it.n; s++ {
		if seen.Has(s) || blocked.Has(s) {
			continue
		}
		comp := []int{s}
		seen.Add(s)
		for head := 0; head < len(comp); head++ {
			nbrs, links := it.Arcs(comp[head])
			for j, w32 := range nbrs {
				w := int(w32)
				if seen.Has(w) || blocked.Has(w) || blocked.Has(int(links[j])) {
					continue
				}
				seen.Add(w)
				comp = append(comp, w)
			}
		}
		slices.Sort(comp)
		comps = append(comps, comp)
	}
	return comps
}
