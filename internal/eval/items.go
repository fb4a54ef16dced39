package eval

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// split returns the nodes and the links, as normalized faults, of the
// sorted items of ix, both non-nil; ids past the universe are dropped.
func split(ix *graph.Items, items []int) ([]int, []routing.EdgeFault) {
	nodes, cuts := []int{}, []routing.EdgeFault{}
	for _, it := range items {
		if u, v, ok := ix.Ends(it); ok {
			cuts = append(cuts, routing.EdgeFault{U: u, V: v})
		} else if it < ix.N() {
			nodes = append(nodes, it)
		}
	}
	return nodes, cuts
}

// set returns the item set of the nodes and links given; nodes outside
// 0..n-1 and links that are not edges are dropped.
func set(ix *graph.Items, nodes []int, cuts []routing.EdgeFault) *graph.Bitset {
	s := graph.NewBitset(ix.N() + ix.M())
	for _, v := range nodes {
		if v >= 0 && v < ix.N() {
			s.Add(v)
		}
	}
	for _, c := range cuts {
		if it, ok := ix.Link(c.U, c.V); ok {
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
