package gen

import (
	"errors"
	"math"
	"testing"

	"ftroute/internal/graph"
)

// checkRegular asserts that every node of g has degree d.
func checkRegular(t *testing.T, g *graph.Graph, d int) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		if got := g.Degree(u); got != d {
			t.Fatalf("node %d has degree %d, want %d", u, got, d)
		}
	}
}

func TestComplete(t *testing.T) {
	g, err := Complete(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 5 || g.M() != 10 {
		t.Fatalf("K5: n=%d m=%d", g.N(), g.M())
	}
	checkRegular(t, g, 4)
	if _, err := Complete(0); !errors.Is(err, ErrBadParam) {
		t.Fatal("Complete(0) should fail")
	}
}

func TestPathAndCycle(t *testing.T) {
	p, err := Path(6)
	if err != nil {
		t.Fatal(err)
	}
	if p.M() != 5 {
		t.Fatalf("P6 m=%d", p.M())
	}
	c, err := Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 6 {
		t.Fatalf("C6 m=%d", c.M())
	}
	checkRegular(t, c, 2)
	if _, err := Cycle(2); !errors.Is(err, ErrBadParam) {
		t.Fatal("Cycle(2) should fail")
	}
}

func TestStar(t *testing.T) {
	g, err := Star(5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(0) != 4 || g.Degree(1) != 1 {
		t.Fatal("star degrees wrong")
	}
}

func TestGrid(t *testing.T) {
	g, err := Grid(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("n=%d", g.N())
	}
	// Edge count: 3*(4-1) horizontal rows + 4*(3-1) vertical = 9+8=17.
	if g.M() != 17 {
		t.Fatalf("m=%d", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(0, 4) || g.HasEdge(3, 4) {
		t.Fatal("grid adjacency wrong")
	}
	diam, ok := g.Diameter(nil)
	if !ok || diam != 5 {
		t.Fatalf("3x4 grid diameter = (%d,%v), want 5", diam, ok)
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 15 || g.M() != 30 {
		t.Fatalf("torus n=%d m=%d", g.N(), g.M())
	}
	checkRegular(t, g, 4)
	if _, err := Torus(2, 5); !errors.Is(err, ErrBadParam) {
		t.Fatal("Torus(2,·) should fail")
	}
}

func TestHypercube(t *testing.T) {
	for d := 1; d <= 6; d++ {
		g, err := Hypercube(d)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 1<<uint(d) {
			t.Fatalf("Q%d n=%d", d, g.N())
		}
		checkRegular(t, g, d)
		diam, ok := g.Diameter(nil)
		if !ok || diam != d {
			t.Fatalf("Q%d diameter = (%d,%v)", d, diam, ok)
		}
	}
	if _, err := Hypercube(0); !errors.Is(err, ErrBadParam) {
		t.Fatal("Hypercube(0) should fail")
	}
}

func TestCCC(t *testing.T) {
	g, err := CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 || g.M() != 36 {
		t.Fatalf("CCC(3): n=%d m=%d", g.N(), g.M())
	}
	checkRegular(t, g, 3)
	if !g.IsConnected(nil) {
		t.Fatal("CCC should be connected")
	}
	if _, err := CCC(2); !errors.Is(err, ErrBadParam) {
		t.Fatal("CCC(2) should fail")
	}
}

func TestWrappedButterfly(t *testing.T) {
	g, err := WrappedButterfly(3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 {
		t.Fatalf("BF(3) n=%d", g.N())
	}
	checkRegular(t, g, 4)
	if !g.IsConnected(nil) {
		t.Fatal("butterfly should be connected")
	}
	g4, err := WrappedButterfly(4)
	if err != nil {
		t.Fatal(err)
	}
	checkRegular(t, g4, 4)
}

func TestDeBruijn(t *testing.T) {
	g, err := DeBruijn(4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatalf("n=%d", g.N())
	}
	if !g.IsConnected(nil) {
		t.Fatal("de Bruijn should be connected")
	}
	if g.MaxDegree() > 4 {
		t.Fatalf("max degree %d > 4", g.MaxDegree())
	}
}

func TestCirculant(t *testing.T) {
	g, err := Circulant(10, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	checkRegular(t, g, 4)
	if _, err := Circulant(10, []int{6}); !errors.Is(err, ErrBadParam) {
		t.Fatal("offset beyond n/2 should fail")
	}
}

func TestCirculantHalfOffset(t *testing.T) {
	// Offset exactly n/2 on even n produces the perfect matching once.
	g, err := Circulant(6, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 {
		t.Fatalf("C6({3}) m=%d, want 3", g.M())
	}
}

func TestHararyEdgeCounts(t *testing.T) {
	tests := []struct {
		k, n  int
		wantM int
	}{
		{2, 7, 7},     // cycle
		{4, 10, 20},   // circulant {1,2}
		{3, 8, 12},    // k odd, n even: cycle + 4 diameters
		{5, 12, 30},   // k odd, n even
		{3, 9, 9 + 5}, // k odd, n odd: ceil(kn/2) = 14
	}
	for _, tc := range tests {
		g, err := Harary(tc.k, tc.n)
		if err != nil {
			t.Fatalf("Harary(%d,%d): %v", tc.k, tc.n, err)
		}
		if g.M() != tc.wantM {
			t.Fatalf("Harary(%d,%d) m=%d, want %d", tc.k, tc.n, g.M(), tc.wantM)
		}
		if g.MinDegree() < tc.k {
			t.Fatalf("Harary(%d,%d) min degree %d < k", tc.k, tc.n, g.MinDegree())
		}
	}
	if _, err := Harary(1, 5); !errors.Is(err, ErrBadParam) {
		t.Fatal("Harary(1,·) should fail")
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("petersen n=%d m=%d", g.N(), g.M())
	}
	checkRegular(t, g, 3)
	girth, ok := g.Girth()
	if !ok || girth != 5 {
		t.Fatalf("petersen girth = (%d,%v)", girth, ok)
	}
	diam, ok := g.Diameter(nil)
	if !ok || diam != 2 {
		t.Fatalf("petersen diameter = (%d,%v)", diam, ok)
	}
}

func TestOctahedron(t *testing.T) {
	g := Octahedron()
	if g.N() != 6 || g.M() != 12 {
		t.Fatalf("octahedron n=%d m=%d", g.N(), g.M())
	}
	checkRegular(t, g, 4)
	for u := 0; u < 3; u++ {
		if g.HasEdge(u, u+3) {
			t.Fatal("antipodal nodes should not be adjacent")
		}
	}
}

func TestIcosahedron(t *testing.T) {
	g := Icosahedron()
	if g.N() != 12 || g.M() != 30 {
		t.Fatalf("icosahedron n=%d m=%d", g.N(), g.M())
	}
	checkRegular(t, g, 5)
	diam, ok := g.Diameter(nil)
	if !ok || diam != 3 {
		t.Fatalf("icosahedron diameter = (%d,%v), want 3", diam, ok)
	}
}

func TestWheel(t *testing.T) {
	g, err := Wheel(7)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(6) != 6 {
		t.Fatalf("hub degree = %d", g.Degree(6))
	}
	if g.Degree(0) != 3 {
		t.Fatalf("rim degree = %d", g.Degree(0))
	}
}

func TestGnpDeterministic(t *testing.T) {
	a, err := Gnp(30, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Gnp(30, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("same seed should give the same graph")
	}
	c, err := Gnp(30, 0.2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(c) {
		t.Fatal("different seeds should (almost surely) differ")
	}
}

func TestGnpExtremes(t *testing.T) {
	empty, err := Gnp(10, 0, 1)
	if err != nil || empty.M() != 0 {
		t.Fatalf("G(10,0): m=%d err=%v", empty.M(), err)
	}
	full, err := Gnp(10, 1, 1)
	if err != nil || full.M() != 45 {
		t.Fatalf("G(10,1): m=%d err=%v", full.M(), err)
	}
	if _, err := Gnp(10, 1.5, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("p>1 should fail")
	}
	if _, err := Gnp(10, math.NaN(), 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("p=NaN should fail")
	}
}

func TestGnpConnected(t *testing.T) {
	g, seed, err := GnpConnected(25, 0.25, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected(nil) {
		t.Fatal("GnpConnected returned a disconnected graph")
	}
	if seed < 1 {
		t.Fatalf("seed = %d", seed)
	}
	// Impossible request: p=0 never connects n>1 nodes.
	if _, _, err := GnpConnected(5, 0, 1, 3); err == nil {
		t.Fatal("expected failure for p=0")
	}
}

func TestRandomRegular(t *testing.T) {
	g, err := RandomRegular(20, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	checkRegular(t, g, 3)
	// Determinism.
	h, err := RandomRegular(20, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(h) {
		t.Fatal("same seed should reproduce the graph")
	}
}

func TestRandomRegularBadParams(t *testing.T) {
	if _, err := RandomRegular(5, 3, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("odd n*d should fail")
	}
	if _, err := RandomRegular(4, 4, 1); !errors.Is(err, ErrBadParam) {
		t.Fatal("d >= n should fail")
	}
}

func TestRandomRegularConnected(t *testing.T) {
	g, _, err := RandomRegularConnected(30, 3, 3, 50)
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsConnected(nil) {
		t.Fatal("disconnected result")
	}
	checkRegular(t, g, 3)
}

// TestGeneratorsRejectOversizedGraphs feeds every sized generator
// parameters whose graph has more than graph.MaxNodes nodes, or whose
// node count overflows an int: each must return ErrBadParam before it
// allocates, never panic or run out of memory.
func TestGeneratorsRejectOversizedGraphs(t *testing.T) {
	const huge = 1 << 62
	over := graph.MaxNodes + 1
	cases := []struct {
		name  string
		build func() (*graph.Graph, error)
	}{
		{"Complete", func() (*graph.Graph, error) { return Complete(over) }},
		{"Path", func() (*graph.Graph, error) { return Path(huge) }},
		{"Cycle", func() (*graph.Graph, error) { return Cycle(2000000000) }},
		{"Star", func() (*graph.Graph, error) { return Star(over) }},
		{"Grid", func() (*graph.Graph, error) { return Grid(1025, 1024) }},
		{"Grid overflow", func() (*graph.Graph, error) { return Grid(1<<32, 1<<32) }},
		{"Torus", func() (*graph.Graph, error) { return Torus(1024, 1025) }},
		{"Torus overflow", func() (*graph.Graph, error) { return Torus(3037000500, 3037000500) }},
		{"Circulant", func() (*graph.Graph, error) { return Circulant(over, []int{1}) }},
		{"Harary", func() (*graph.Graph, error) { return Harary(3, huge) }},
		{"Harary wide", func() (*graph.Graph, error) { return Harary(huge, huge+1) }},
		{"Wheel", func() (*graph.Graph, error) { return Wheel(over) }},
		{"GeneralizedPetersen", func() (*graph.Graph, error) { return GeneralizedPetersen(graph.MaxNodes/2+1, 1) }},
		{"GeneralizedPetersen wide k", func() (*graph.Graph, error) { return GeneralizedPetersen(10, huge) }},
		{"Prism", func() (*graph.Graph, error) { return Prism(huge) }},
		{"CompleteBipartite", func() (*graph.Graph, error) { return CompleteBipartite(graph.MaxNodes, 1) }},
		{"CompleteBipartite overflow", func() (*graph.Graph, error) { return CompleteBipartite(math.MaxInt, math.MaxInt) }},
		{"BalancedTree", func() (*graph.Graph, error) { return BalancedTree(2, 20) }},
		{"BalancedTree overflow", func() (*graph.Graph, error) { return BalancedTree(huge, 3) }},
		{"Barbell", func() (*graph.Graph, error) { return Barbell(graph.MaxNodes/2, 1) }},
		{"Barbell overflow", func() (*graph.Graph, error) { return Barbell(huge, math.MaxInt) }},
		{"Gnp", func() (*graph.Graph, error) { return Gnp(huge, 0.5, 1) }},
		{"GnpConnected", func() (*graph.Graph, error) { g, _, err := GnpConnected(over, 0.5, 1, 3); return g, err }},
		{"RandomRegular", func() (*graph.Graph, error) { return RandomRegular(huge, 3, 1) }},
		{"RandomRegularConnected", func() (*graph.Graph, error) { g, _, err := RandomRegularConnected(over, 3, 1, 3); return g, err }},
	}
	for _, c := range cases {
		if g, err := c.build(); g != nil || !errors.Is(err, ErrBadParam) {
			t.Errorf("%s: got a graph (%v) and error %v, want ErrBadParam", c.name, g != nil, err)
		}
	}
}
