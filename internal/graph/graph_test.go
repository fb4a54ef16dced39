package graph

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func mustPath(t *testing.T, n int, edges ...[2]int) *Graph {
	t.Helper()
	g := New(n)
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	return g
}

// pathGraph returns the path 0-1-...-(n-1).
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g
}

// cycleGraph returns the cycle 0-1-...-(n-1)-0.
func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	if n >= 3 {
		g.MustAddEdge(n-1, 0)
	}
	return g
}

func TestNewEmpty(t *testing.T) {
	g := New(0)
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph: n=%d m=%d", g.N(), g.M())
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 0 || g.AverageDegree() != 0 {
		t.Fatal("empty graph degrees should be zero")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) should panic")
		}
	}()
	New(-1)
}

func TestAddEdgeBasics(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatal("edge should exist in both directions")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 || g.Degree(2) != 0 {
		t.Fatal("unexpected degrees")
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	tests := []struct {
		name string
		u, v int
		want error
	}{
		{"self loop", 1, 1, ErrSelfLoop},
		{"u out of range", -1, 0, ErrNodeRange},
		{"v out of range", 0, 3, ErrNodeRange},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := g.AddEdge(tc.u, tc.v); !errors.Is(err, tc.want) {
				t.Fatalf("AddEdge(%d,%d) = %v, want %v", tc.u, tc.v, err, tc.want)
			}
		})
	}
	g.MustAddEdge(0, 1)
	if err := g.AddEdge(1, 0); !errors.Is(err, ErrDuplicateEdge) {
		t.Fatalf("duplicate edge: got %v", err)
	}
}

func TestAddEdgeIfAbsent(t *testing.T) {
	g := New(3)
	added, err := g.AddEdgeIfAbsent(0, 1)
	if err != nil || !added {
		t.Fatalf("first insert: added=%v err=%v", added, err)
	}
	added, err = g.AddEdgeIfAbsent(1, 0)
	if err != nil || added {
		t.Fatalf("second insert should be a no-op: added=%v err=%v", added, err)
	}
	added, err = g.AddEdgeIfAbsent(1, 1)
	if err != nil || added {
		t.Fatalf("self loop should be ignored: added=%v err=%v", added, err)
	}
	if _, err = g.AddEdgeIfAbsent(0, 9); err == nil {
		t.Fatal("out of range should error")
	}
	if g.M() != 1 {
		t.Fatalf("m=%d want 1", g.M())
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := mustPath(t, 5, [2]int{2, 4}, [2]int{2, 0}, [2]int{2, 3}, [2]int{2, 1})
	nbrs := g.Neighbors(2)
	want := []int{0, 1, 3, 4}
	for i, v := range want {
		if nbrs[i] != v {
			t.Fatalf("Neighbors(2) = %v, want %v", nbrs, want)
		}
	}
	nbrs[0] = 99 // mutating the copy must not affect the graph
	if !g.HasEdge(2, 0) {
		t.Fatal("mutating Neighbors result changed graph")
	}
}

func TestEachNeighborEarlyStop(t *testing.T) {
	g := mustPath(t, 5, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	var got []int
	g.EachNeighbor(0, func(v int) bool {
		got = append(got, v)
		return len(got) < 2
	})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("early stop iteration got %v", got)
	}
}

func TestEdgesSorted(t *testing.T) {
	g := mustPath(t, 4, [2]int{3, 1}, [2]int{2, 0}, [2]int{0, 1})
	edges := g.Edges()
	want := [][2]int{{0, 1}, {0, 2}, {1, 3}}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
}

func TestDegreeStats(t *testing.T) {
	g := mustPath(t, 4, [2]int{0, 1}, [2]int{0, 2}, [2]int{0, 3})
	if g.MinDegree() != 1 {
		t.Fatalf("min degree = %d", g.MinDegree())
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("max degree = %d", g.MaxDegree())
	}
	if got := g.AverageDegree(); got != 1.5 {
		t.Fatalf("avg degree = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := cycleGraph(5)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c.MustAddEdge(0, 2)
	if g.HasEdge(0, 2) {
		t.Fatal("mutating clone affected original")
	}
	if g.Equal(c) {
		t.Fatal("Equal should detect edge difference")
	}
}

func TestEqualDifferentSizes(t *testing.T) {
	if New(3).Equal(New(4)) {
		t.Fatal("graphs of different order should differ")
	}
}

func TestStringSummary(t *testing.T) {
	g := cycleGraph(4)
	if got := g.String(); got != "Graph(n=4, m=4)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(2)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) {
		t.Fatal("out-of-range HasEdge should be false")
	}
}

func TestDOT(t *testing.T) {
	g := mustPath(t, 2, [2]int{0, 1})
	dot := g.DOT("")
	if !strings.Contains(dot, "graph G {") || !strings.Contains(dot, "0 -- 1;") {
		t.Fatalf("unexpected DOT output: %s", dot)
	}
}

func TestBFSDistancesPath(t *testing.T) {
	g := pathGraph(5)
	dist := g.BFSDistances(0, nil)
	for i := 0; i < 5; i++ {
		if dist[i] != i {
			t.Fatalf("dist[%d]=%d, want %d", i, dist[i], i)
		}
	}
}

func TestBFSDistancesBlocked(t *testing.T) {
	g := pathGraph(5)
	blocked := BitsetOf(5, 2)
	dist := g.BFSDistances(0, blocked)
	if dist[1] != 1 {
		t.Fatalf("dist[1]=%d", dist[1])
	}
	if dist[2] != Unreachable || dist[3] != Unreachable || dist[4] != Unreachable {
		t.Fatal("nodes behind blocked node should be unreachable")
	}
}

func TestBFSDistancesBlockedSource(t *testing.T) {
	g := pathGraph(3)
	dist := g.BFSDistances(0, BitsetOf(3, 0))
	for i, d := range dist {
		if d != Unreachable {
			t.Fatalf("dist[%d]=%d from blocked source", i, d)
		}
	}
}

func TestDist(t *testing.T) {
	g := cycleGraph(6)
	if d := g.Dist(0, 3); d != 3 {
		t.Fatalf("Dist(0,3)=%d", d)
	}
	if d := g.Dist(0, 5); d != 1 {
		t.Fatalf("Dist(0,5)=%d", d)
	}
	if d := g.Dist(2, 2); d != 0 {
		t.Fatalf("Dist(2,2)=%d", d)
	}
}

func TestDistDisconnected(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if d := g.Dist(0, 3); d != Unreachable {
		t.Fatalf("Dist across components = %d", d)
	}
}

func TestIsConnected(t *testing.T) {
	if !cycleGraph(5).IsConnected(nil) {
		t.Fatal("cycle should be connected")
	}
	g := New(4)
	g.MustAddEdge(0, 1)
	if g.IsConnected(nil) {
		t.Fatal("graph with isolated nodes is not connected")
	}
	// Blocking the isolated nodes makes it connected.
	if !g.IsConnected(BitsetOf(4, 2, 3)) {
		t.Fatal("blocking isolated nodes should leave a connected graph")
	}
}

func TestIsConnectedAllBlocked(t *testing.T) {
	g := New(2)
	if !g.IsConnected(BitsetOf(2, 0, 1)) {
		t.Fatal("empty surviving node set is trivially connected")
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(4, 5)
	comps := NewItems(g).Components(nil)
	if len(comps) != 3 {
		t.Fatalf("components = %v", comps)
	}
	if len(comps[0]) != 3 || comps[0][0] != 0 {
		t.Fatalf("first component = %v", comps[0])
	}
	if len(comps[1]) != 1 || comps[1][0] != 3 {
		t.Fatalf("second component = %v", comps[1])
	}
	if len(comps[2]) != 2 || comps[2][0] != 4 {
		t.Fatalf("third component = %v", comps[2])
	}
}

func TestDiameter(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
		ok   bool
	}{
		{"path 5", pathGraph(5), 4, true},
		{"cycle 6", cycleGraph(6), 3, true},
		{"cycle 7", cycleGraph(7), 3, true},
		{"single node", New(1), 0, true},
		{"disconnected", func() *Graph { g := New(3); g.MustAddEdge(0, 1); return g }(), 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.g.Diameter(nil)
			if got != tc.want || ok != tc.ok {
				t.Fatalf("Diameter = (%d,%v), want (%d,%v)", got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestDiameterWithBlocked(t *testing.T) {
	g := cycleGraph(6)
	// Removing 0 and 3 from C6 leaves {1,2} and {4,5}: disconnected.
	d, ok := g.Diameter(BitsetOf(6, 0, 3))
	if ok {
		t.Fatalf("expected disconnected, got diameter %d", d)
	}
	d, ok = g.Diameter(BitsetOf(6, 0))
	if !ok || d != 4 {
		t.Fatalf("C6 minus one node should be a path with diameter 4, got (%d,%v)", d, ok)
	}
}

func TestGirth(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want int
		ok   bool
	}{
		{"triangle", cycleGraph(3), 3, true},
		{"c5", cycleGraph(5), 5, true},
		{"c9", cycleGraph(9), 9, true},
		{"tree", pathGraph(6), 0, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tc.g.Girth()
			if got != tc.want || ok != tc.ok {
				t.Fatalf("Girth = (%d,%v), want (%d,%v)", got, ok, tc.want, tc.ok)
			}
		})
	}
}

// TestBFSMatchesDijkstraProperty checks, on random graphs, that BFS
// distances satisfy the triangle property |dist(u)-dist(v)| <= 1 across
// every edge — the defining local invariant of unweighted shortest paths.
func TestBFSTriangleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(u, v)
				}
			}
		}
		dist := g.BFSDistances(0, nil)
		for _, e := range g.Edges() {
			du, dv := dist[e[0]], dist[e[1]]
			if (du == Unreachable) != (dv == Unreachable) {
				t.Fatalf("trial %d: edge %v crosses reachability boundary", trial, e)
			}
			if du != Unreachable && dv != Unreachable && du-dv > 1 || dv-du > 1 {
				t.Fatalf("trial %d: edge %v has dist gap %d vs %d", trial, e, du, dv)
			}
		}
	}
}
