package flow

import (
	"math/rand"
	"slices"
	"testing"
)

func TestMaxFlowDiamond(t *testing.T) {
	// s=0, t=3, two disjoint unit paths through 1 and 2.
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 1)
	nw.AddArc(0, 2, 1)
	nw.AddArc(1, 3, 1)
	nw.AddArc(2, 3, 1)
	if got := nw.MaxFlow(0, 3, Inf); got != 2 {
		t.Fatalf("max flow = %d, want 2", got)
	}
}

func TestMaxFlowBottleneck(t *testing.T) {
	// Two sources of capacity merge into one unit arc.
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 5)
	nw.AddArc(0, 2, 5)
	nw.AddArc(1, 3, 1)
	nw.AddArc(2, 3, 7)
	if got := nw.MaxFlow(0, 3, Inf); got != 6 {
		t.Fatalf("max flow = %d, want 6", got)
	}
}

func TestMaxFlowRequiresAugmentingUndo(t *testing.T) {
	// Classic case where a greedy path must be partially undone:
	//   0->1, 0->2, 1->2 is tempting but 1->3 and 2->3 exist.
	nw := NewNetwork(4)
	nw.AddArc(0, 1, 1)
	nw.AddArc(0, 2, 1)
	nw.AddArc(1, 2, 1)
	nw.AddArc(1, 3, 1)
	nw.AddArc(2, 3, 1)
	if got := nw.MaxFlow(0, 3, Inf); got != 2 {
		t.Fatalf("max flow = %d, want 2", got)
	}
}

func TestMaxFlowLimit(t *testing.T) {
	nw := NewNetwork(2)
	nw.AddArc(0, 1, 10)
	if got := nw.MaxFlow(0, 1, 3); got != 3 {
		t.Fatalf("limited flow = %d, want 3", got)
	}
}

func TestMaxFlowSameNode(t *testing.T) {
	nw := NewNetwork(2)
	nw.AddArc(0, 1, 1)
	if got := nw.MaxFlow(0, 0, Inf); got != 0 {
		t.Fatalf("s==t flow = %d", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	nw := NewNetwork(3)
	nw.AddArc(0, 1, 1)
	if got := nw.MaxFlow(0, 2, Inf); got != 0 {
		t.Fatalf("flow = %d, want 0", got)
	}
}

func TestFlowPerArc(t *testing.T) {
	nw := NewNetwork(3)
	a := nw.AddArc(0, 1, 2)
	b := nw.AddArc(1, 2, 1)
	nw.MaxFlow(0, 2, Inf)
	if nw.Flow(a) != 1 || nw.Flow(b) != 1 {
		t.Fatalf("arc flows = %d,%d", nw.Flow(a), nw.Flow(b))
	}
}

func TestMinCutReachable(t *testing.T) {
	// 0 -> 1 -> 2 with the bottleneck on 1->2.
	nw := NewNetwork(3)
	nw.AddArc(0, 1, 5)
	nw.AddArc(1, 2, 1)
	nw.MaxFlow(0, 2, Inf)
	seen := nw.MinCutReachable(0)
	if !seen[0] || !seen[1] || seen[2] {
		t.Fatalf("reachable = %v", seen)
	}
}

func TestDecomposePathsDisjoint(t *testing.T) {
	// Three node-disjoint paths of different lengths from 0 to 5.
	nw := NewNetwork(6)
	nw.AddArc(0, 1, 1)
	nw.AddArc(1, 5, 1)
	nw.AddArc(0, 2, 1)
	nw.AddArc(2, 3, 1)
	nw.AddArc(3, 5, 1)
	nw.AddArc(0, 4, 1)
	nw.AddArc(4, 5, 1)
	if got := nw.MaxFlow(0, 5, Inf); got != 3 {
		t.Fatalf("flow = %d", got)
	}
	paths := nw.DecomposePaths(0, 5, -1)
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	interior := map[int]bool{}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 5 {
			t.Fatalf("bad endpoints: %v", p)
		}
		for _, v := range p[1 : len(p)-1] {
			if interior[v] {
				t.Fatalf("interior node %d reused", v)
			}
			interior[v] = true
		}
	}
}

func TestDecomposePathsMax(t *testing.T) {
	nw := NewNetwork(3)
	nw.AddArc(0, 1, 2)
	nw.AddArc(1, 2, 2)
	nw.MaxFlow(0, 2, Inf)
	paths := nw.DecomposePaths(0, 2, 1)
	if len(paths) != 1 {
		t.Fatalf("want exactly 1 path, got %d", len(paths))
	}
}

func TestAddArcPanics(t *testing.T) {
	nw := NewNetwork(2)
	for _, tc := range []struct{ u, v, c int }{
		{-1, 0, 1}, {0, 2, 1}, {0, 1, -1},
		// Capacities are 32-bit: above Inf they would wrap (1<<31 to a
		// max flow of 0, 1<<32+1 to 1).
		{0, 1, Inf + 1}, {0, 1, 1 << 32}, {0, 1, 1<<32 + 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("AddArc(%d,%d,%d) should panic", tc.u, tc.v, tc.c)
				}
			}()
			nw.AddArc(tc.u, tc.v, tc.c)
		}()
	}
	if got := nw.MaxFlow(0, 1, Inf); got != 0 {
		t.Fatalf("a rejected AddArc left flow %d", got)
	}
	nw.AddArc(0, 1, Inf)
	if got := nw.MaxFlow(0, 1, Inf); got != Inf {
		t.Fatalf("max flow over an Inf arc = %d, want %d", got, Inf)
	}
}

func TestSetCapacityPanics(t *testing.T) {
	nw := NewNetwork(2)
	a := nw.AddArc(0, 1, 1)
	nw.Save()
	for _, c := range []int{-1, Inf + 1, 1 << 32, 1<<32 + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetCapacity(%d, %d) should panic", a, c)
				}
			}()
			nw.SetCapacity(a, c)
		}()
	}
	if got := nw.MaxFlow(0, 1, Inf); got != 1 {
		t.Fatalf("a rejected SetCapacity changed the flow to %d, want 1", got)
	}
	nw.Restore()
	nw.SetCapacity(a, Inf)
	if got := nw.MaxFlow(0, 1, Inf); got != Inf {
		t.Fatalf("max flow after SetCapacity(Inf) = %d, want %d", got, Inf)
	}
}

// TestMaxFlowAgainstBruteForce cross-checks Dinic against a brute-force
// Ford–Fulkerson (DFS augmenting paths with explicit capacity matrices)
// on small random unit networks.
func TestMaxFlowAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(7)
		capm := make([][]int, n)
		for i := range capm {
			capm[i] = make([]int, n)
		}
		nw := NewNetwork(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u != v && rng.Float64() < 0.4 {
					c := 1 + rng.Intn(3)
					capm[u][v] += c
					nw.AddArc(u, v, c)
				}
			}
		}
		want := fordFulkerson(capm, 0, n-1)
		if got := nw.MaxFlow(0, n-1, Inf); got != want {
			t.Fatalf("trial %d: dinic=%d brute=%d", trial, got, want)
		}
	}
}

// fordFulkerson is a reference implementation on an explicit capacity
// matrix.
func fordFulkerson(capm [][]int, s, t int) int {
	n := len(capm)
	resid := make([][]int, n)
	for i := range resid {
		resid[i] = append([]int(nil), capm[i]...)
	}
	total := 0
	for {
		parent := make([]int, n)
		for i := range parent {
			parent[i] = -1
		}
		parent[s] = s
		queue := []int{s}
		for head := 0; head < len(queue) && parent[t] == -1; head++ {
			u := queue[head]
			for v := 0; v < n; v++ {
				if parent[v] == -1 && resid[u][v] > 0 {
					parent[v] = u
					queue = append(queue, v)
				}
			}
		}
		if parent[t] == -1 {
			return total
		}
		// Find bottleneck.
		aug := 1 << 30
		for v := t; v != s; v = parent[v] {
			if resid[parent[v]][v] < aug {
				aug = resid[parent[v]][v]
			}
		}
		for v := t; v != s; v = parent[v] {
			resid[parent[v]][v] -= aug
			resid[v][parent[v]] += aug
		}
		total += aug
	}
}

// TestSaveRestore runs several queries on one network: Restore undoes
// both the flow and SetCapacity changes, and the reused scratch gives
// the same paths every time. Restore copies back only the arc pairs on
// its undo list, so each case below compares every arc with the state
// the last Save recorded.
func TestSaveRestore(t *testing.T) {
	nw := NewNetwork(4)
	a := nw.AddArc(0, 1, 1)
	b := nw.AddArc(0, 2, 1)
	nw.AddArc(1, 3, 1)
	nw.AddArc(2, 3, 1)
	nw.Save()
	saved := slices.Clone(nw.arcs)
	restored := func(what string) {
		t.Helper()
		nw.Restore()
		if !slices.Equal(nw.arcs, saved) {
			t.Fatalf("%s: arcs %v, saved %v", what, nw.arcs, saved)
		}
	}
	for round := 0; round < 3; round++ {
		if got := nw.MaxFlow(0, 3, Inf); got != 2 {
			t.Fatalf("round %d: flow = %d, want 2", round, got)
		}
		if paths := nw.DecomposePaths(0, 3, -1); len(paths) != 2 || paths[0][1] != 1 || paths[1][1] != 2 {
			t.Fatalf("round %d: paths = %v", round, paths)
		}
		restored("after MaxFlow and DecomposePaths")
		nw.SetCapacity(a, 0)
		if got := nw.MaxFlow(0, 3, Inf); got != 1 {
			t.Fatalf("round %d: flow with 0->1 closed = %d, want 1", round, got)
		}
		restored("after SetCapacity and MaxFlow")
	}

	nw.SetCapacity(a, 0)
	nw.SetCapacity(b, Inf)
	nw.SetCapacity(a, 5) // a pair changed twice is restored once
	restored("after SetCapacity only")
	restored("twice in a row")

	// A Save taken while flow is in the network keeps that flow: Restore
	// returns to the half-used residual, not to the empty network.
	if got := nw.MaxFlow(0, 3, 1); got != 1 {
		t.Fatalf("flow capped at 1 = %d", got)
	}
	nw.Save()
	saved = slices.Clone(nw.arcs)
	if got := nw.MaxFlow(0, 3, Inf); got != 1 {
		t.Fatalf("flow on top of a saved unit = %d, want 1 more", got)
	}
	restored("after a Save with flow in the network")
	if got := nw.MaxFlow(0, 3, Inf); got != 1 {
		t.Fatalf("flow after restoring the saved unit = %d, want 1 more", got)
	}
	restored("after a second query on the saved flow")

	nw.Save()
	nw.AddArc(3, 0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Restore after AddArc should panic")
		}
	}()
	nw.Restore()
}
