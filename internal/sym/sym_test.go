package sym

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
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

// TestEnumeratorMatchesBruteForce classifies every set of size ≤ 3 by
// its true orbit minimum and checks Each emits exactly the canonical
// sets with exact orbit sizes, on a non-trivial group (C6 dihedral).
func TestEnumeratorMatchesBruteForce(t *testing.T) {
	g := must(gen.Cycle(6))
	gr := Automorphisms(g)
	elems := Elements(gr.N, gr.Gens, 1<<20)
	en := NewEnumerator(g.N(), elems)
	got := map[string]int{}
	en.Each(3, func(set []int, mult int) {
		got[intsKey(set)] = mult
	})
	// Brute force: canonical form of every subset, grouped.
	classes := map[string]int{}
	n := g.N()
	var sets [][]int
	for a := 0; a < n; a++ {
		sets = append(sets, []int{a})
		for b := a + 1; b < n; b++ {
			sets = append(sets, []int{a, b})
			for c := b + 1; c < n; c++ {
				sets = append(sets, []int{a, b, c})
			}
		}
	}
	for _, set := range sets {
		best := append([]int(nil), set...)
		img := make([]int, len(set))
		for _, p := range elems {
			for i, v := range set {
				img[i] = p[v]
			}
			sort.Ints(img)
			if lexLess(img, best) {
				copy(best, img)
			}
		}
		classes[intsKey(best)]++
	}
	if !reflect.DeepEqual(got, classes) {
		t.Fatalf("enumerator classes %v != brute force %v", got, classes)
	}
}

// TestEnumeratorCCC4Mixed pins the acceptance criterion: under the full
// automorphism group of CCC(4), the 160-item mixed universe of f=2
// collapses from 12880 non-empty sets to at most 1287 canonical
// representatives (≥10× including the empty set) whose orbit sizes sum
// back to exactly 12880.
func TestEnumeratorCCC4Mixed(t *testing.T) {
	g := must(gen.CCC(4))
	gr := Automorphisms(g)
	elems := Elements(gr.N, gr.Gens, ElementCap)
	if elems == nil {
		t.Fatal("CCC(4) element cap exceeded")
	}
	if len(elems) < 64 {
		t.Fatalf("|Aut(CCC(4))| = %d, want >= 64", len(elems))
	}
	mixed, ok := graph.NewItems(g).Lift(elems, true, true)
	if !ok {
		t.Fatal("automorphism failed to lift to edges")
	}
	items := g.N() + g.M()
	if items != 160 {
		t.Fatalf("universe %d items, want 160", items)
	}
	en := NewEnumerator(items, mixed)
	reps, total := en.Count(2)
	if total != 12880 {
		t.Fatalf("orbit sizes sum to %d, want 12880", total)
	}
	if reps+1 > 1288 {
		t.Fatalf("%d representatives (+empty): pruning under 10x on the 12881-set universe", reps)
	}
	t.Logf("CCC(4) mixed f=2: %d reps for 12880 sets (|Aut| = %d)", reps, len(elems))
}

// TestEnumeratorSizeBounds runs Count at sizes outside 0..items on the
// C6 dihedral group: a negative size yields nothing, a size past the
// universe is the whole universe (2^6 − 1 non-empty sets), and neither
// panics.
func TestEnumeratorSizeBounds(t *testing.T) {
	g := must(gen.Cycle(6))
	gr := Automorphisms(g)
	en := NewEnumerator(g.N(), Elements(gr.N, gr.Gens, 1<<20))
	allReps, _ := en.Count(6)
	for _, tc := range []struct {
		size        int
		reps, total int
	}{
		{size: -1},
		{size: math.MinInt},
		{size: 0},
		{size: 6, reps: allReps, total: 63},
		{size: 7, reps: allReps, total: 63},
		{size: math.MaxInt, reps: allReps, total: 63},
	} {
		if reps, total := en.Count(tc.size); reps != tc.reps || total != tc.total {
			t.Fatalf("Count(%d) = (%d, %d), want (%d, %d)", tc.size, reps, total, tc.reps, tc.total)
		}
	}
}

// TestFreePairSubgroupAndTransport builds the equivariant shortest-path
// transport on Q3 and checks every subgroup element respects it while
// the free-action condition holds.
func TestFreePairSubgroupAndTransport(t *testing.T) {
	g := must(gen.Hypercube(3))
	gr := Automorphisms(g)
	elems := Elements(gr.N, gr.Gens, 1<<20)
	sub := FreePairSubgroup(elems)
	if len(sub) < 8 {
		t.Fatalf("free subgroup order %d, want >= 8 (the translations)", len(sub))
	}
	for _, p := range sub {
		if !pairFree(p) {
			t.Fatalf("subgroup element %v fixes two nodes", p)
		}
	}
	// Closure: products stay inside.
	have := map[string]bool{}
	for _, p := range sub {
		have[permKey(p)] = true
	}
	for _, a := range sub {
		for _, b := range sub {
			c := make([]int, len(a))
			for i, v := range a {
				c[i] = b[v]
			}
			if !have[permKey(c)] {
				t.Fatal("free subgroup not closed under composition")
			}
		}
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TransportRouting(g, r, sub)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("transported routing invalid: %v", err)
	}
	if !tr.Complete() {
		t.Fatal("transported routing incomplete")
	}
	check := NewRoutingCheck(tr)
	for _, p := range sub {
		if !check.Respects(p) {
			t.Fatalf("subgroup element %v does not respect the transported routing", p)
		}
	}
	// A routing with id-dependent tie breaking is generally not
	// equivariant: some automorphism must fail the check.
	rawCheck := NewRoutingCheck(r)
	broken := false
	for _, p := range elems {
		if !rawCheck.Respects(p) {
			broken = true
			break
		}
	}
	if !broken {
		t.Log("raw shortest-path routing happens to respect the whole group")
	}
}

func TestTablesRespect(t *testing.T) {
	g := must(gen.Cycle(9))
	gr := Automorphisms(g)
	elems := Elements(gr.N, gr.Gens, 1<<20)
	sub := FreePairSubgroup(elems)
	if len(sub) < 9 {
		t.Fatalf("free subgroup order %d on C9, want >= 9 (the rotations)", len(sub))
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := TransportRouting(g, r, sub)
	if err != nil {
		t.Fatal(err)
	}
	tab := routing.FailoverFromRouting(tr)
	for _, p := range sub {
		if !TablesRespect(tab, p) {
			t.Fatalf("subgroup element %v does not respect the transported tables", p)
		}
	}
	// Sanity: a non-automorphism-shaped permutation must fail.
	bad := Identity(g.N())
	bad[0], bad[1] = 1, 0
	if TablesRespect(tab, bad) {
		t.Fatal("swapping two adjacent nodes should not respect the tables")
	}
}
