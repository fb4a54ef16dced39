package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadEdgeListRoundTrip(t *testing.T) {
	g := cycleGraph(7)
	g.MustAddEdge(0, 3)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("round trip changed the graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\nn 3\n\n0 1\n# another\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("g = %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no header", "0 1\n"},
		{"bad count", "n x\n"},
		{"negative count", "n -2\n"},
		{"bad edge", "n 2\n0\n"},
		{"non numeric", "n 2\na b\n"},
		{"loop", "n 2\n1 1\n"},
		{"duplicate", "n 2\n0 1\n1 0\n"},
		{"range", "n 2\n0 5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("input %q should fail", tc.in)
			}
		})
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := cycleGraph(5)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(&back) {
		t.Fatal("JSON round trip changed the graph")
	}
}

func TestGraphJSONRejectsBadEdges(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"nodes":2,"edges":[[0,0]]}`), &g); err == nil {
		t.Fatal("self loop should fail")
	}
	if err := json.Unmarshal([]byte(`{broken`), &g); err == nil {
		t.Fatal("syntax error should fail")
	}
}

// TestDecodersRejectBadNodeCounts checks both decoders return an error,
// rather than panicking in New or running out of memory, on node counts
// outside 0..MaxNodes, and accept the bounds themselves.
func TestDecodersRejectBadNodeCounts(t *testing.T) {
	cases := []struct {
		name  string
		nodes string
		ok    bool
	}{
		{"negative", "-1", false},
		{"huge", "100000000000", false},
		{"above MaxNodes", fmt.Sprint(MaxNodes + 1), false},
		{"zero", "0", true},
		{"MaxNodes", fmt.Sprint(MaxNodes), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var g Graph
			err := json.Unmarshal([]byte(`{"nodes": `+tc.nodes+`, "edges": []}`), &g)
			if (err == nil) != tc.ok {
				t.Fatalf("UnmarshalJSON nodes=%s: err = %v", tc.nodes, err)
			}
			h, err := ReadEdgeList(strings.NewReader("n " + tc.nodes + "\n"))
			if (err == nil) != tc.ok {
				t.Fatalf("ReadEdgeList n=%s: err = %v", tc.nodes, err)
			}
			if tc.ok && (g.N() != h.N() || fmt.Sprint(h.N()) != tc.nodes) {
				t.Fatalf("decoded %d and %d nodes, want %s", g.N(), h.N(), tc.nodes)
			}
		})
	}
}

func TestArticulationPoints(t *testing.T) {
	// Two triangles sharing node 2: node 2 is the only cut vertex.
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 2)
	cuts := g.ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v", cuts)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	cuts := pathGraph(5).ArticulationPoints()
	want := []int{1, 2, 3}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v", cuts)
		}
	}
}

func TestArticulationPointsCycle(t *testing.T) {
	if cuts := cycleGraph(6).ArticulationPoints(); len(cuts) != 0 {
		t.Fatalf("cycle has no cut vertices: %v", cuts)
	}
}

// TestCutsAgainstBruteForce cross-checks articulation points against
// the removal-based definition on random graphs.
func TestCutsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(9)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(u, v)
				}
			}
		}
		ix := NewItems(g)
		comps := len(ix.Components(nil))
		gotCut := map[int]bool{}
		for _, v := range g.ArticulationPoints() {
			gotCut[v] = true
		}
		for v := 0; v < n; v++ {
			after := len(ix.Components(BitsetOf(n, v)))
			// Removing isolated v reduces components; removing a leaf
			// keeps them; a cut vertex increases them (v itself not
			// counted: compare against comps minus the v-only component).
			base := comps
			if g.Degree(v) == 0 {
				base--
			}
			want := after > base
			if gotCut[v] != want {
				t.Fatalf("trial %d: node %d cut=%v want %v\n%s", trial, v, gotCut[v], want, g.DOT("G"))
			}
		}
	}
}
