package connectivity

import (
	"errors"
	"math/rand"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// mustGen returns a closure that unwraps (graph, error) generator
// results, failing the test on error.
func mustGen(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestVertexConnectivityKnownGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path4", mustGen(t)(gen.Path(4)), 1},
		{"cycle5", mustGen(t)(gen.Cycle(5)), 2},
		{"cycle9", mustGen(t)(gen.Cycle(9)), 2},
		{"grid3x3", mustGen(t)(gen.Grid(3, 3)), 2},
		{"torus3x5", mustGen(t)(gen.Torus(3, 5)), 4},
		{"Q3", mustGen(t)(gen.Hypercube(3)), 3},
		{"Q4", mustGen(t)(gen.Hypercube(4)), 4},
		{"petersen", gen.Petersen(), 3},
		{"octahedron", gen.Octahedron(), 4},
		{"icosahedron", gen.Icosahedron(), 5},
		{"ccc3", mustGen(t)(gen.CCC(3)), 3},
		{"butterfly3", mustGen(t)(gen.WrappedButterfly(3)), 4},
		{"harary(4,10)", mustGen(t)(gen.Harary(4, 10)), 4},
		{"harary(3,8)", mustGen(t)(gen.Harary(3, 8)), 3},
		{"harary(5,12)", mustGen(t)(gen.Harary(5, 12)), 5},
		{"star", mustGen(t)(gen.Star(6)), 1},
		{"wheel7", mustGen(t)(gen.Wheel(7)), 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			k, sep, err := VertexConnectivity(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if k != tc.want {
				t.Fatalf("κ = %d, want %d", k, tc.want)
			}
			if len(sep) != k {
				t.Fatalf("separator size %d != κ %d", len(sep), k)
			}
			// Removing the separator must disconnect the graph.
			blocked := graph.NewBitset(tc.g.N())
			for _, v := range sep {
				blocked.Add(v)
			}
			if tc.g.IsConnected(blocked) {
				t.Fatalf("separator %v does not disconnect", sep)
			}
		})
	}
}

func TestVertexConnectivityComplete(t *testing.T) {
	g := mustGen(t)(gen.Complete(5))
	k, sep, err := VertexConnectivity(g)
	if !errors.Is(err, ErrComplete) {
		t.Fatalf("err = %v", err)
	}
	if k != 4 || sep != nil {
		t.Fatalf("K5: κ=%d sep=%v", k, sep)
	}
}

func TestVertexConnectivityDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	k, sep, err := VertexConnectivity(g)
	if err != nil || k != 0 || len(sep) != 0 {
		t.Fatalf("disconnected: κ=%d sep=%v err=%v", k, sep, err)
	}
}

func TestVertexConnectivityTiny(t *testing.T) {
	k, _, err := VertexConnectivity(graph.New(1))
	if !errors.Is(err, ErrComplete) || k != 0 {
		t.Fatalf("single node: κ=%d err=%v", k, err)
	}
	// Two isolated nodes: disconnected, κ=0.
	k, _, err = VertexConnectivity(graph.New(2))
	if err != nil || k != 0 {
		t.Fatalf("two nodes: κ=%d err=%v", k, err)
	}
	// K2: complete.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	k, _, err = VertexConnectivity(g)
	if !errors.Is(err, ErrComplete) || k != 1 {
		t.Fatalf("K2: κ=%d err=%v", k, err)
	}
}

func TestIsKConnected(t *testing.T) {
	g := mustGen(t)(gen.Hypercube(4))
	for k := 0; k <= 4; k++ {
		ok, err := IsKConnected(g, k)
		if err != nil || !ok {
			t.Fatalf("Q4 should be %d-connected (err=%v)", k, err)
		}
	}
	ok, err := IsKConnected(g, 5)
	if err != nil || ok {
		t.Fatal("Q4 is not 5-connected")
	}
	// K5 is 4-connected but not 5-connected (n <= k).
	k5 := mustGen(t)(gen.Complete(5))
	if ok, _ := IsKConnected(k5, 4); !ok {
		t.Fatal("K5 should be 4-connected")
	}
	if ok, _ := IsKConnected(k5, 5); ok {
		t.Fatal("K5 is not 5-connected")
	}
}

func TestDisjointPathsCycle(t *testing.T) {
	g := mustGen(t)(gen.Cycle(7))
	paths, err := DisjointPaths(g, 0, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkInternallyDisjoint(t, g, paths, 0, 3)
	if _, err := DisjointPaths(g, 0, 3, 3); !errors.Is(err, ErrTooFewPaths) {
		t.Fatalf("C7 has only 2 disjoint paths: %v", err)
	}
}

func TestDisjointPathsAdjacent(t *testing.T) {
	g := mustGen(t)(gen.Complete(5))
	paths, err := DisjointPaths(g, 0, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkInternallyDisjoint(t, g, paths, 0, 1)
}

func TestDisjointPathsHypercube(t *testing.T) {
	g := mustGen(t)(gen.Hypercube(4))
	paths, err := DisjointPaths(g, 0, 15, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkInternallyDisjoint(t, g, paths, 0, 15)
}

// checkInternallyDisjoint validates that paths are real paths of g from s
// to t sharing no internal nodes.
func checkInternallyDisjoint(t *testing.T, g *graph.Graph, paths [][]int, s, x int) {
	t.Helper()
	used := map[int]bool{}
	for _, p := range paths {
		if p[0] != s || p[len(p)-1] != x {
			t.Fatalf("path endpoints wrong: %v", p)
		}
		seen := map[int]bool{p[0]: true}
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("non-edge %d-%d in path %v", p[i], p[i+1], p)
			}
			if seen[p[i+1]] {
				t.Fatalf("path revisits node: %v", p)
			}
			seen[p[i+1]] = true
		}
		for _, v := range p[1 : len(p)-1] {
			if used[v] {
				t.Fatalf("paths share internal node %d", v)
			}
			used[v] = true
		}
	}
}

func TestDisjointPathsToSetCycle(t *testing.T) {
	g := mustGen(t)(gen.Cycle(9))
	// M = {3, 6} separates 0 from nodes 4,5.
	paths, err := DisjointPathsToSet(g, 0, []int{3, 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkTreeRouting(t, g, 0, []int{3, 6}, paths)
}

func TestDisjointPathsToSetShortcut(t *testing.T) {
	// Star-with-ring: center 0 adjacent to 1; the path to 1 must be the
	// direct edge even if flow found a longer one.
	g := mustGen(t)(gen.Cycle(6))
	paths, err := DisjointPathsToSet(g, 0, []int{1, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if len(p) != 2 {
			t.Fatalf("adjacent member should use the direct edge: %v", p)
		}
	}
}

func TestDisjointPathsToSetMemberX(t *testing.T) {
	g := mustGen(t)(gen.Cycle(5))
	if _, err := DisjointPathsToSet(g, 0, []int{0, 2}, 1); err == nil {
		t.Fatal("x in M should error")
	}
}

func TestDisjointPathsToSetTooFew(t *testing.T) {
	g := mustGen(t)(gen.Path(5))
	if _, err := DisjointPathsToSet(g, 0, []int{2, 4}, 2); !errors.Is(err, ErrTooFewPaths) {
		t.Fatalf("path graph cannot have 2 disjoint paths: %v", err)
	}
}

func TestDisjointPathsToSetZero(t *testing.T) {
	g := mustGen(t)(gen.Cycle(5))
	paths, err := DisjointPathsToSet(g, 0, []int{2}, 0)
	if err != nil || paths != nil {
		t.Fatalf("k=0: %v %v", paths, err)
	}
}

// checkTreeRouting validates the full Lemma 2 contract.
func checkTreeRouting(t *testing.T, g *graph.Graph, x int, members []int, paths [][]int) {
	t.Helper()
	inM := map[int]bool{}
	for _, m := range members {
		inM[m] = true
	}
	usedEnd := map[int]bool{}
	usedInternal := map[int]bool{}
	for _, p := range paths {
		if p[0] != x {
			t.Fatalf("path must start at x: %v", p)
		}
		end := p[len(p)-1]
		if !inM[end] {
			t.Fatalf("path must end in M: %v", p)
		}
		if usedEnd[end] {
			t.Fatalf("duplicate endpoint %d", end)
		}
		usedEnd[end] = true
		for i := 0; i+1 < len(p); i++ {
			if !g.HasEdge(p[i], p[i+1]) {
				t.Fatalf("non-edge in path %v", p)
			}
		}
		for _, v := range p[1 : len(p)-1] {
			if inM[v] {
				t.Fatalf("internal node %d is in M: %v", v, p)
			}
			if usedInternal[v] {
				t.Fatalf("shared internal node %d", v)
			}
			usedInternal[v] = true
		}
		if g.HasEdge(x, end) && len(p) != 2 {
			t.Fatalf("shortcut rule violated: %v", p)
		}
	}
}

// TestDisjointPathsToSetRandom exercises the Lemma 2 contract on random
// connected graphs with separators extracted from the graph itself.
func TestDisjointPathsToSetRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trials := 0
	for trials < 40 {
		n := 8 + rng.Intn(10)
		g, _, err := gen.GnpConnected(n, 0.3, rng.Int63(), 60)
		if err != nil {
			continue
		}
		k, sep, err := VertexConnectivity(g)
		if err != nil || k == 0 {
			continue
		}
		trials++
		// Pick x outside the separator.
		inSep := map[int]bool{}
		for _, v := range sep {
			inSep[v] = true
		}
		x := -1
		for v := 0; v < n; v++ {
			if !inSep[v] {
				x = v
				break
			}
		}
		if x == -1 {
			continue
		}
		paths, err := DisjointPathsToSet(g, x, sep, k)
		if err != nil {
			// Legal: the separator may fail to separate x's side from
			// enough distinct members if |sep| == k but x sits "inside".
			// Lemma 2 only guarantees k paths when M separates x from
			// some node; verify that claim before failing.
			blocked := graph.NewBitset(n)
			for _, v := range sep {
				blocked.Add(v)
			}
			dist := g.BFSDistances(x, blocked)
			for v := 0; v < n; v++ {
				if !inSep[v] && v != x && dist[v] == graph.Unreachable {
					t.Fatalf("n=%d x=%d sep=%v: M separates x from %d but k paths missing: %v", n, x, sep, v, err)
				}
			}
			continue
		}
		checkTreeRouting(t, g, x, sep, paths)
	}
}

// TestVertexConnectivityAgainstBruteForce compares κ(G) with a
// brute-force computation (minimum over all vertex subsets whose removal
// disconnects the graph) on small random graphs.
func TestVertexConnectivityAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.Intn(5)
		g, err := gen.Gnp(n, 0.5, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		want := bruteConnectivity(g)
		got, _, err := VertexConnectivity(g)
		if errors.Is(err, ErrComplete) {
			if want != n-1 {
				t.Fatalf("trial %d: complete detection wrong (brute=%d)", trial, want)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d (n=%d): κ=%d brute=%d\n%s", trial, n, got, want, g.DOT("G"))
		}
	}
}

// bruteConnectivity computes κ by trying all removal subsets in
// increasing size order; κ(K_n) = n-1 by convention.
func bruteConnectivity(g *graph.Graph) int {
	n := g.N()
	if !g.IsConnected(nil) {
		return 0
	}
	for size := 1; size < n-1; size++ {
		subset := make([]int, size)
		var rec func(start, idx int) bool
		rec = func(start, idx int) bool {
			if idx == size {
				blocked := graph.NewBitset(n)
				for _, v := range subset {
					blocked.Add(v)
				}
				// Must leave >= 2 nodes and be disconnected.
				remaining := n - size
				return remaining >= 2 && !g.IsConnected(blocked)
			}
			for v := start; v < n; v++ {
				subset[idx] = v
				if rec(v+1, idx+1) {
					return true
				}
			}
			return false
		}
		if rec(0, 0) {
			return size
		}
	}
	return n - 1
}
