package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestItemsLinkRoundTrip: link i of Edges() is item n+i in both
// endpoint orders, Ends inverts Link, and everything that is not an
// edge — node items, ids past the links, non-edges, self-loops and
// endpoints outside 0..n-1 — is refused. Besides small random graphs
// the graphs include high-degree nodes: a wheel's 39-neighbor hub, and
// complete graphs and stars on 17 and 30 nodes.
func TestItemsLinkRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var graphs []*Graph
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(12)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.MustAddEdge(u, v)
				}
			}
		}
		graphs = append(graphs, g)
	}
	wheel := New(40)
	for v := 1; v < 40; v++ {
		wheel.MustAddEdge(0, v)
		wheel.MustAddEdge(v, 1+v%39)
	}
	graphs = append(graphs, wheel)
	for _, n := range []int{17, 30} {
		complete, star := New(n), New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				complete.MustAddEdge(u, v)
			}
			if u > 0 {
				star.MustAddEdge(0, u)
			}
		}
		graphs = append(graphs, complete, star)
	}
	for trial, g := range graphs {
		n := g.N()
		ix := NewItems(g)
		if ix.N() != n || ix.M() != g.M() {
			t.Fatalf("trial %d: N, M = %d, %d; want %d, %d", trial, ix.N(), ix.M(), n, g.M())
		}
		for i, e := range g.Edges() {
			for _, uv := range [][2]int{{e[0], e[1]}, {e[1], e[0]}} {
				if it, ok := ix.Link(uv[0], uv[1]); !ok || it != n+i {
					t.Fatalf("trial %d: Link%v = %d, %v; want %d", trial, uv, it, ok, n+i)
				}
			}
			if u, v, ok := ix.Ends(n + i); !ok || u != e[0] || v != e[1] {
				t.Fatalf("trial %d: Ends(%d) = %d, %d, %v; want %v", trial, n+i, u, v, ok, e)
			}
		}
		for _, it := range []int{0, n - 1, n + g.M(), -1} {
			if _, _, ok := ix.Ends(it); ok {
				t.Fatalf("trial %d: Ends(%d) reported a link", trial, it)
			}
		}
		for u := -1; u <= n; u++ {
			for v := -1; v <= n; v++ {
				if _, ok := ix.Link(u, v); ok != g.HasEdge(u, v) {
					t.Fatalf("trial %d: Link(%d, %d) ok = %v", trial, u, v, ok)
				}
			}
		}
		for u := 0; u < n; u++ {
			nbrs, links := ix.Arcs(u)
			if len(nbrs) != len(links) || len(nbrs) != g.Degree(u) {
				t.Fatalf("trial %d: Arcs(%d) has %d neighbors and %d links, degree %d", trial, u, len(nbrs), len(links), g.Degree(u))
			}
			for j, w := range nbrs {
				if it, ok := ix.Link(u, int(w)); int(w) != g.Neighbors(u)[j] || !ok || int(links[j]) != it {
					t.Fatalf("trial %d: Arcs(%d)[%d] = (%d, %d), want (%d, Link %d)", trial, u, j, w, links[j], g.Neighbors(u)[j], it)
				}
			}
		}
	}
}

// TestItemsLiftRejectsNonAutomorphisms: only automorphisms lift. On C4
// a permutation of the wrong length, one with an out-of-range image,
// the fold [0 1 0 1] (every link image is an edge, but it is no
// bijection) and a bijection that maps a link onto a non-edge fail on
// the node, link and mixed universes alike, and one bad permutation
// fails the whole list. The identity and the rotation lift to the
// permutations of universe positions they induce.
func TestItemsLiftRejectsNonAutomorphisms(t *testing.T) {
	g := cycleGraph(4) // links 0:{0,1} 1:{0,3} 2:{1,2} 3:{2,3}
	ix := NewItems(g)
	rot := []int{1, 2, 3, 0}
	universes := []struct {
		nodes, links bool
		id, rot      []int
	}{
		{true, false, []int{0, 1, 2, 3}, rot},
		{false, true, []int{0, 1, 2, 3}, []int{2, 0, 3, 1}},
		{true, true, []int{0, 1, 2, 3, 4, 5, 6, 7}, []int{1, 2, 3, 0, 6, 4, 7, 5}},
	}
	bad := [][]int{nil, {0, 1}, {0, 1, 2}, {0, 1, 2, 3, 4}, {0, 1, 2, 4}, {-1, 1, 2, 3}, {0, 1, 0, 1}, {0, 2, 1, 3}}
	for _, u := range universes {
		for _, p := range bad {
			for _, perms := range [][][]int{{p}, {rot, p}} {
				if out, ok := ix.Lift(perms, u.nodes, u.links); ok || out != nil {
					t.Errorf("Lift(%v, %v, %v) = %v, %v; want nil, false", perms, u.nodes, u.links, out, ok)
				}
			}
		}
		out, ok := ix.Lift([][]int{{0, 1, 2, 3}, rot}, u.nodes, u.links)
		if want := [][]int{u.id, u.rot}; !ok || !reflect.DeepEqual(out, want) {
			t.Errorf("Lift(identity, rotation; %v, %v) = %v, %v; want %v", u.nodes, u.links, out, ok, want)
		}
	}
}

// TestItemsComponents: links block by item id as nodes do. The
// reference drops the blocked links from a copy of the graph and
// labels each unblocked node by the smallest node it reaches.
func TestItemsComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(10)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.35 {
					g.MustAddEdge(u, v)
				}
			}
		}
		ix := NewItems(g)
		blocked := NewBitset(n + g.M())
		left := New(n)
		for i, e := range g.Edges() {
			if rng.Intn(4) == 0 {
				blocked.Add(n + i)
			} else {
				left.MustAddEdge(e[0], e[1])
			}
		}
		for v := 0; v < n; v++ {
			if rng.Intn(5) == 0 {
				blocked.Add(v)
			}
		}
		want := bruteComponents(left, blocked)
		if got := ix.Components(blocked); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: components %v, want %v", trial, got, want)
		}
	}
}

// bruteComponents labels the unblocked nodes of g by the smallest node
// each reaches, and groups them by label in increasing order.
func bruteComponents(g *Graph, blocked *Bitset) [][]int {
	var comps [][]int
	label := map[int]int{}
	for v := 0; v < g.N(); v++ {
		if blocked.Has(v) {
			continue
		}
		root := v
		for u, d := range g.BFSDistances(v, blocked) {
			if d != Unreachable && u < root {
				root = u
			}
		}
		if root == v {
			label[v] = len(comps)
			comps = append(comps, nil)
		}
		comps[label[root]] = append(comps[label[root]], v)
	}
	return comps
}
