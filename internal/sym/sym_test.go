package sym

import (
	"reflect"
	"sort"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// bruteAutomorphisms enumerates all n! permutations and keeps the edge-
// preserving ones. Only usable for n ≤ 8.
func bruteAutomorphisms(g *graph.Graph) [][]int {
	n := g.N()
	edges := g.Edges()
	var out [][]int
	perm := Identity(n)
	var recurse func(k int)
	recurse = func(k int) {
		if k == n {
			for _, e := range edges {
				if !g.HasEdge(perm[e[0]], perm[e[1]]) {
					return
				}
			}
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			recurse(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	recurse(0)
	sort.Slice(out, func(i, j int) bool { return permLess(out[i], out[j]) })
	return out
}

func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

func smallGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"K5":        must(gen.Complete(5)),
		"P4":        must(gen.Path(4)),
		"C6":        must(gen.Cycle(6)),
		"C8":        must(gen.Cycle(8)),
		"star5":     must(gen.Star(5)),
		"grid2x3":   must(gen.Grid(2, 3)),
		"grid2x4":   must(gen.Grid(2, 4)),
		"Q3":        must(gen.Hypercube(3)),
		"K23":       must(gen.CompleteBipartite(2, 3)),
		"wheel5":    must(gen.Wheel(5)),
		"prism3":    must(gen.Prism(3)),
		"oct":       gen.Octahedron(),
		"barbell3":  must(gen.Barbell(3, 1)),
		"tree2x2":   must(gen.BalancedTree(2, 2)),
		"torus-ish": must(gen.Circulant(8, []int{1, 3})),
	}
}

// TestAutomorphismsMatchBruteForce pins the search-found group — as a
// full element set — and the induced node, link and mixed-item orbit
// partitions (links and mixed items through graph.Items.Lift) to an
// all-permutations brute-force reference on every small graph.
func TestAutomorphismsMatchBruteForce(t *testing.T) {
	for name, g := range smallGraphs() {
		want := bruteAutomorphisms(g)
		gr := Automorphisms(g)
		got := Elements(gr.N, gr.Gens, 1<<20)
		if got == nil {
			t.Fatalf("%s: element cap exceeded", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: search found %d automorphisms, brute force %d", name, len(got), len(want))
			continue
		}
		if no := Orbits(g.N(), gr.Gens); !reflect.DeepEqual(no, Orbits(g.N(), want)) {
			t.Errorf("%s: node orbits %v disagree with brute force", name, no)
		}
		ix := graph.NewItems(g)
		for _, u := range []struct {
			name  string
			nodes bool
			size  int
		}{{"link", false, g.M()}, {"mixed", true, g.N() + g.M()}} {
			gens, okGens := ix.Lift(gr.Gens, u.nodes, true)
			all, okAll := ix.Lift(want, u.nodes, true)
			if !okGens || !okAll {
				t.Errorf("%s: an automorphism does not lift onto the %s items", name, u.name)
				continue
			}
			if o := Orbits(u.size, gens); !reflect.DeepEqual(o, Orbits(u.size, all)) {
				t.Errorf("%s: %s orbits %v disagree with brute force", name, u.name, o)
			}
		}
	}
}

func groupOrder(t *testing.T, g *graph.Graph) int {
	t.Helper()
	gr := Automorphisms(g)
	elems := Elements(gr.N, gr.Gens, 1<<20)
	if elems == nil {
		t.Fatal("element cap exceeded")
	}
	return len(elems)
}

func TestKnownGroupOrders(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"K5", must(gen.Complete(5)), 120},
		{"C9", must(gen.Cycle(9)), 18},
		{"Q3", must(gen.Hypercube(3)), 48},
		{"Q4", must(gen.Hypercube(4)), 384},
		{"Petersen", gen.Petersen(), 120},
		{"P5", must(gen.Path(5)), 2},
	}
	for _, tc := range cases {
		if got := groupOrder(t, tc.g); got != tc.want {
			t.Errorf("%s: |Aut| = %d, want %d", tc.name, got, tc.want)
		}
	}
}
