// Package sym computes graph symmetry: the automorphism group of a
// graph by equitable-partition refinement with individualization, the
// element list of a group, and orbits under a group. The package works
// on node permutations; graph.Items.Lift carries them onto the link and
// mixed fault universes, whose orbits Orbits then computes. ftroute
// orbits and experiment E20 report the group and its orbits;
// docs/symmetry.md derives the search.
package sym

import (
	"sort"

	"ftroute/internal/graph"
)

// Group is an automorphism group of a graph on nodes 0..N-1, given by
// a generating set of node permutations.
type Group struct {
	N    int
	Gens [][]int
}

// Automorphisms searches for a generating set of Aut(g) with the
// classical individualization-refinement scheme: refine the uniform
// coloring to an equitable partition, individualize each member of the
// first non-singleton cell, and recurse. The first (leftmost) leaf
// fixes a base labeling; every other leaf whose labeling maps the base
// onto the graph contributes an automorphism. Non-leftmost subtrees
// stop at their first automorphism — one element per such subtree
// together with the leftmost subtree's stabilizer chain generates the
// whole group.
func Automorphisms(g *graph.Graph) *Group {
	n := g.N()
	gr := &Group{N: n}
	if n <= 1 {
		return gr
	}
	s := &autSearch{g: g, n: n, edges: g.Edges()}
	colors := make([]int, n)
	s.refine(colors)
	s.search(colors, true)
	gr.Gens = s.gens
	return gr
}

type autSearch struct {
	g         *graph.Graph
	n         int
	edges     [][2]int
	baseOrder []int // vertices of the first leaf, in color order
	gens      [][]int
}

// refine splits color classes by the multiset of neighbor colors until
// the partition is equitable. The relabeling is a pure function of the
// color values, so the refinement commutes with every automorphism —
// the property the search's completeness rests on.
func (s *autSearch) refine(colors []int) {
	n := s.n
	prev := countDistinct(colors)
	keys := make([]string, n)
	buf := make([]byte, 0, 64)
	nb := make([]int, 0, 8)
	for {
		for v := 0; v < n; v++ {
			nb = nb[:0]
			s.g.EachNeighbor(v, func(w int) bool {
				nb = append(nb, colors[w])
				return true
			})
			sort.Ints(nb)
			buf = buf[:0]
			buf = appendColor(buf, colors[v])
			for _, c := range nb {
				buf = appendColor(buf, c)
			}
			keys[v] = string(buf)
		}
		distinct := append([]string(nil), keys...)
		sort.Strings(distinct)
		distinct = dedupeStrings(distinct)
		if len(distinct) == prev {
			return // equitable: no class split further
		}
		rank := make(map[string]int, len(distinct))
		for i, k := range distinct {
			rank[k] = i
		}
		for v := 0; v < n; v++ {
			colors[v] = rank[keys[v]]
		}
		prev = len(distinct)
	}
}

// search explores the individualization-refinement tree. leftmost
// reports whether this node lies on the leftmost root-to-leaf path. The
// return value tells a non-leftmost caller it may abandon its remaining
// branches: one automorphism per non-leftmost subtree is enough.
func (s *autSearch) search(colors []int, leftmost bool) bool {
	cell := s.targetCell(colors)
	if cell == nil {
		return s.leaf(colors)
	}
	next := maxColor(colors) + 1
	found := false
	for idx, v := range cell {
		child := append([]int(nil), colors...)
		child[v] = next
		s.refine(child)
		if s.search(child, leftmost && idx == 0) {
			found = true
			if !leftmost {
				return true
			}
		}
	}
	return found
}

// targetCell returns the members (ascending) of the non-singleton cell
// with the smallest color value, or nil when the partition is discrete.
func (s *autSearch) targetCell(colors []int) []int {
	bestColor := -1
	for v, c := range colors {
		count, first := 0, -1
		for w, cw := range colors {
			if cw == c {
				count++
				if first < 0 {
					first = w
				}
			}
		}
		if count >= 2 && first == v && (bestColor < 0 || c < bestColor) {
			bestColor = c
		}
	}
	if bestColor < 0 {
		return nil
	}
	var cell []int
	for v, c := range colors {
		if c == bestColor {
			cell = append(cell, v)
		}
	}
	return cell
}

// leaf records the base labeling on first visit; afterwards it maps the
// base leaf onto this one and keeps the permutation if it is a
// non-identity automorphism.
func (s *autSearch) leaf(colors []int) bool {
	order := orderByColor(colors)
	if s.baseOrder == nil {
		s.baseOrder = order
		return false
	}
	p := make([]int, s.n)
	identity := true
	for i, v := range s.baseOrder {
		p[v] = order[i]
		if p[v] != v {
			identity = false
		}
	}
	if identity {
		return false
	}
	for _, e := range s.edges {
		if !s.g.HasEdge(p[e[0]], p[e[1]]) {
			return false
		}
	}
	s.gens = append(s.gens, p)
	return true
}

// orderByColor returns the vertices sorted by color value. At a
// discrete partition all colors are distinct, so the order is a
// labeling derived purely from the (equivariant) colors.
func orderByColor(colors []int) []int {
	order := make([]int, len(colors))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return colors[order[i]] < colors[order[j]] })
	return order
}

func countDistinct(colors []int) int {
	seen := make(map[int]bool, len(colors))
	for _, c := range colors {
		seen[c] = true
	}
	return len(seen)
}

func maxColor(colors []int) int {
	m := 0
	for _, c := range colors {
		if c > m {
			m = c
		}
	}
	return m
}

func dedupeStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// appendColor encodes a color as 4 big-endian bytes so string
// comparison orders keys numerically.
func appendColor(buf []byte, c int) []byte {
	return append(buf, byte(c>>24), byte(c>>16), byte(c>>8), byte(c))
}

// Identity returns the identity permutation on n points.
func Identity(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// ElementCap is the largest group order Elements is asked to list:
// ftroute orbits and E20 list the elements only to count the group's
// order, and ftroute orbits prints a lower bound past the cap. Orbits
// need only the generators, so no orbit count is capped.
const ElementCap = 1 << 14

// Elements expands a generating set to the full element list of the
// generated group (identity included), sorted deterministically: it
// closes the identity and the distinct generators under composition,
// breadth first. It returns nil when the group has more than max
// elements.
func Elements(n int, gens [][]int, max int) [][]int {
	var elems [][]int
	seen := make(map[string]bool, len(gens)+1)
	add := func(p []int) bool {
		k := permKey(p)
		if seen[k] {
			return true
		}
		if len(elems) >= max {
			return false
		}
		seen[k] = true
		elems = append(elems, p)
		return true
	}
	for _, p := range append([][]int{Identity(n)}, gens...) {
		if !add(p) {
			return nil
		}
	}
	seed := elems[:len(elems):len(elems)]
	for head := 0; head < len(elems); head++ {
		for _, q := range seed {
			c := make([]int, len(q))
			for i, v := range elems[head] {
				c[i] = q[v]
			}
			if !add(c) {
				return nil
			}
		}
	}
	sort.Slice(elems, func(i, j int) bool { return permLess(elems[i], elems[j]) })
	return elems
}

func permKey(p []int) string {
	buf := make([]byte, 0, 4*len(p))
	for _, v := range p {
		buf = appendColor(buf, v)
	}
	return string(buf)
}

func permLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
