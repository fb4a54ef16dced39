package core

import (
	"errors"
	"math/rand"
	"testing"

	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// mustGen unwraps (graph, error) generator results.
func mustGen(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func exhaustiveCfg() eval.Config { return eval.Config{Mode: eval.Exhaustive} }

func sampledCfg(samples int) eval.Config {
	return eval.Config{Mode: eval.Sampled, Samples: samples, Seed: 1, Greedy: true}
}

// --- Neighborhood sets (Lemma 15) ---

func TestNeighborhoodSetCycle(t *testing.T) {
	g := mustGen(t)(gen.Cycle(9))
	m := NeighborhoodSet(g)
	if len(m) != 3 {
		t.Fatalf("C9 neighborhood set = %v, want 3 nodes", m)
	}
	if err := CheckNeighborhoodSet(g, m); err != nil {
		t.Fatal(err)
	}
}

func TestNeighborhoodSetBound(t *testing.T) {
	// Lemma 15: greedy K >= ceil(n/(d^2+1)) on every graph.
	graphs := []*graph.Graph{
		mustGen(t)(gen.Cycle(30)),
		mustGen(t)(gen.Torus(5, 7)),
		mustGen(t)(gen.Hypercube(5)),
		mustGen(t)(gen.CCC(4)),
		gen.Petersen(),
	}
	for _, g := range graphs {
		m := NeighborhoodSet(g)
		bound := GreedyNeighborhoodBound(g.N(), g.MaxDegree())
		if len(m) < bound {
			t.Fatalf("%v: greedy set %d below Lemma 15 bound %d", g, len(m), bound)
		}
		if err := CheckNeighborhoodSet(g, m); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNeighborhoodSetRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		g, err := gen.Gnp(20+rng.Intn(30), 0.15, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		m := NeighborhoodSet(g)
		if err := CheckNeighborhoodSet(g, m); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(m) < GreedyNeighborhoodBound(g.N(), g.MaxDegree()) {
			t.Fatalf("trial %d: below bound", trial)
		}
	}
}

func TestNeighborhoodSetAtLeast(t *testing.T) {
	g := mustGen(t)(gen.Cycle(9))
	m, err := NeighborhoodSetAtLeast(g, 3)
	if err != nil || len(m) != 3 {
		t.Fatalf("m=%v err=%v", m, err)
	}
	if _, err := NeighborhoodSetAtLeast(g, 4); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("C9 cannot have 4: %v", err)
	}
}

func TestHammingNeighborhoodSet(t *testing.T) {
	code, err := HammingNeighborhoodSet(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(code) != 16 {
		t.Fatalf("Hamming(7) has %d codewords, want 16", len(code))
	}
	// Pairwise Hamming distance >= 3.
	for i := 0; i < len(code); i++ {
		for j := i + 1; j < len(code); j++ {
			x := code[i] ^ code[j]
			bits := 0
			for x != 0 {
				bits++
				x &= x - 1
			}
			if bits < 3 {
				t.Fatalf("codewords %d,%d at distance %d", code[i], code[j], bits)
			}
		}
	}
	// It must satisfy the neighborhood-set property on Q7.
	q7 := mustGen(t)(gen.Hypercube(7))
	if err := CheckNeighborhoodSet(q7, code); err != nil {
		t.Fatal(err)
	}
	if _, err := HammingNeighborhoodSet(6); !errors.Is(err, ErrNotApplicable) {
		t.Fatal("d=6 is not 2^r-1")
	}
}

// --- Kernel routing (Theorems 3 and 4) ---

func TestKernelTheorem3OnSmallGraphs(t *testing.T) {
	// The paper states max{2t, 4}: tree routings guarantee at most 2
	// hops to and from the concentrator.
	tests := []struct {
		name     string
		g        *graph.Graph
		t, bound int
	}{
		{"cycle8", mustGen(t)(gen.Cycle(8)), 1, 4},
		{"Q3", mustGen(t)(gen.Hypercube(3)), 2, 4},
		{"ccc3", mustGen(t)(gen.CCC(3)), 2, 4},
		{"petersen", gen.Petersen(), 2, 4},
		{"grid3x4", mustGen(t)(gen.Grid(3, 4)), 1, 4},
		{"octahedron", gen.Octahedron(), 3, 6},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, info, err := Kernel(tc.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if info.T != tc.t || info.Bound != tc.bound {
				t.Fatalf("(bound, t) = (%d, %d), want (%d, %d)", info.Bound, info.T, tc.bound, tc.t)
			}
			if err := r.Validate(); err != nil {
				t.Fatal(err)
			}
			if err := eval.CheckTolerance(r, info.Bound, info.T, exhaustiveCfg()); err != nil {
				t.Fatalf("Theorem 3 violated: %v", err)
			}
		})
	}
}

func TestKernelTheorem4HalfFaults(t *testing.T) {
	// (4, ⌊t/2⌋)-tolerance, exhaustively.
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"Q4", mustGen(t)(gen.Hypercube(4))},            // t=3, f=1
		{"icosahedron", gen.Icosahedron()},              // t=4, f=2
		{"octahedron", gen.Octahedron()},                // t=3, f=1
		{"harary(5,14)", mustGen(t)(gen.Harary(5, 14))}, // t=4, f=2
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r, info, err := Kernel(tc.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := eval.CheckTolerance(r, 4, info.T/2, exhaustiveCfg()); err != nil {
				t.Fatalf("Theorem 4 violated: %v", err)
			}
		})
	}
}

func TestKernelRejectsComplete(t *testing.T) {
	if _, _, err := Kernel(mustGen(t)(gen.Complete(5)), Options{}); err == nil {
		t.Fatal("complete graphs have no separating set")
	}
}

func TestKernelMiserly(t *testing.T) {
	g := mustGen(t)(gen.CCC(3))
	r, _, err := Kernel(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Validate() plus conflict-checked construction imply at most one
	// route per pair; spot-check symmetry of the bidirectional closure.
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	count := 0
	r.Each(func(u, v int, p routing.Path) {
		if u < v {
			count++
		}
	})
	if count*2 != r.Len() {
		t.Fatalf("asymmetric pair count: %d vs %d", count*2, r.Len())
	}
}

// --- Circular routing (Theorem 10, Figure 1) ---

func TestCircularTheorem10Cycle(t *testing.T) {
	// C9: t=1, K=3 = 2t+1. Exhaustive over all single faults.
	g := mustGen(t)(gen.Cycle(9))
	r, info, err := Circular(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.T != 1 || info.K != 3 {
		t.Fatalf("info = %+v", info)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTolerance(r, 6, 1, exhaustiveCfg()); err != nil {
		t.Fatalf("Theorem 10 violated: %v", err)
	}
}

func TestCircularTheorem10LargerCycles(t *testing.T) {
	for _, n := range []int{12, 17, 24} {
		g := mustGen(t)(gen.Cycle(n))
		r, _, err := Circular(g, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := eval.CheckTolerance(r, 6, 1, exhaustiveCfg()); err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
	}
}

func TestCircularCCC4(t *testing.T) {
	// CCC(4): n=64, t=2, K=5. Exhaustive over 2-fault sets.
	g := mustGen(t)(gen.CCC(4))
	r, info, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 5 {
		t.Fatalf("K = %d", info.K)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTolerance(r, 6, 2, sampledCfg(150)); err != nil {
		t.Fatalf("Theorem 10 violated on CCC(4): %v", err)
	}
}

func TestCircularMinimalK(t *testing.T) {
	// Lemma 9 variant: t=1 (odd) needs K = t+2 = 3.
	g := mustGen(t)(gen.Cycle(15))
	r, info, err := Circular(g, Options{MinimalK: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 3 {
		t.Fatalf("K = %d, want 3", info.K)
	}
	if err := eval.CheckTolerance(r, 6, 1, exhaustiveCfg()); err != nil {
		t.Fatalf("Lemma 9 variant violated: %v", err)
	}
}

func TestCircularNotApplicable(t *testing.T) {
	// Petersen has diameter 2: no two nodes at distance 3, so no
	// neighborhood set beyond a single node; K=5 is unreachable.
	if _, _, err := Circular(gen.Petersen(), Options{}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("expected ErrNotApplicable, got %v", err)
	}
}

// --- Tri-circular routing (Theorem 13, Figure 2, Remark 14) ---

func TestTriCircularTheorem13Cycle(t *testing.T) {
	// C45: t=1, K = 6t+9 = 15; exhaustive single faults.
	g := mustGen(t)(gen.Cycle(45))
	r, info, err := TriCircular(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 15 || info.Bound != 4 {
		t.Fatalf("info = %+v", info)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTolerance(r, 4, 1, exhaustiveCfg()); err != nil {
		t.Fatalf("Theorem 13 violated: %v", err)
	}
}

func TestTriCircularRemark14(t *testing.T) {
	// t=1 (odd): minimal K = 3(t+2) = 9 on C27; bound 5.
	g := mustGen(t)(gen.Cycle(27))
	r, info, err := TriCircular(g, Options{MinimalK: true})
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 9 || info.Bound != 5 {
		t.Fatalf("info = %+v", info)
	}
	if err := eval.CheckTolerance(r, 5, 1, exhaustiveCfg()); err != nil {
		t.Fatalf("Remark 14 violated: %v", err)
	}
}

func TestTriCircularRandomRegular(t *testing.T) {
	// t=2 on a random 3-regular graph: K = 21 needs n >= ~210.
	g, _, err := gen.RandomRegularConnected(240, 3, 11, 50)
	if err != nil {
		t.Fatal(err)
	}
	r, info, err := TriCircular(g, Options{Tolerance: 2})
	if err != nil {
		t.Skipf("greedy neighborhood set too small on this instance: %v", err)
	}
	if info.K != 21 {
		t.Fatalf("K = %d", info.K)
	}
	if err := eval.CheckTolerance(r, 4, 2, sampledCfg(40)); err != nil {
		t.Fatalf("Theorem 13 violated: %v", err)
	}
}

// --- Two-trees and bipolar routings (Theorems 20 and 23, Figure 3) ---

func TestFindTwoTreesCycle(t *testing.T) {
	g := mustGen(t)(gen.Cycle(10))
	tt, err := FindTwoTrees(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTwoTrees(g, tt.R1, tt.R2); err != nil {
		t.Fatal(err)
	}
	if d := g.Dist(tt.R1, tt.R2); d < 5 {
		t.Fatalf("roots at distance %d", d)
	}
}

func TestTwoTreesRequiresDistance5(t *testing.T) {
	// C9 has diameter 4: no pair at distance >= 5.
	if HasTwoTrees(mustGen(t)(gen.Cycle(9))) {
		t.Fatal("C9 should not have the two-trees property")
	}
	if !HasTwoTrees(mustGen(t)(gen.Cycle(10))) {
		t.Fatal("C10 should have the two-trees property")
	}
}

func TestTwoTreesRejectsShortCycles(t *testing.T) {
	// The hypercube is full of 4-cycles: no node is locally tree-like.
	if HasTwoTrees(mustGen(t)(gen.Hypercube(4))) {
		t.Fatal("Q4 should not have the two-trees property")
	}
	// Petersen: girth 5 (locally tree-like) but diameter 2.
	if HasTwoTrees(gen.Petersen()) {
		t.Fatal("Petersen should fail on distance")
	}
}

func TestCheckTwoTreesErrors(t *testing.T) {
	g := mustGen(t)(gen.Cycle(10))
	if err := CheckTwoTrees(g, 0, 3); !errors.Is(err, ErrNotApplicable) {
		t.Fatal("distance 3 pair should fail")
	}
	q := mustGen(t)(gen.Hypercube(3))
	if err := CheckTwoTrees(q, 0, 7); !errors.Is(err, ErrNotApplicable) {
		t.Fatal("hypercube nodes are on 4-cycles")
	}
}

func TestBipolarUnidirectionalTheorem20(t *testing.T) {
	for _, n := range []int{10, 13, 16} {
		g := mustGen(t)(gen.Cycle(n))
		r, info, err := BipolarUnidirectional(g, Options{})
		if err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
		if info.Bound != 4 || info.T != 1 {
			t.Fatalf("info = %+v", info)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := eval.CheckTolerance(r, 4, 1, exhaustiveCfg()); err != nil {
			t.Fatalf("Theorem 20 violated on C%d: %v", n, err)
		}
	}
}

func TestBipolarBidirectionalTheorem23(t *testing.T) {
	for _, n := range []int{10, 14} {
		g := mustGen(t)(gen.Cycle(n))
		r, info, err := BipolarBidirectional(g, Options{})
		if err != nil {
			t.Fatalf("C%d: %v", n, err)
		}
		if info.Bound != 5 {
			t.Fatalf("info = %+v", info)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := eval.CheckTolerance(r, 5, 1, exhaustiveCfg()); err != nil {
			t.Fatalf("Theorem 23 violated on C%d: %v", n, err)
		}
	}
}

func TestBipolarOnRandomRegular(t *testing.T) {
	// A random 3-regular graph large enough to be locally tree-like
	// somewhere: t = κ-1 (usually 2).
	g, _, err := gen.RandomRegularConnected(40, 3, 29, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !HasTwoTrees(g) {
		t.Skip("instance lacks two-trees pair")
	}
	r, info, err := BipolarUnidirectional(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTolerance(r, 4, info.T, sampledCfg(120)); err != nil {
		t.Fatalf("Theorem 20 violated: %v", err)
	}
	rb, infob, err := BipolarBidirectional(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := eval.CheckTolerance(rb, 5, infob.T, sampledCfg(120)); err != nil {
		t.Fatalf("Theorem 23 violated: %v", err)
	}
}

// --- Section 6: multiroutings and network modification ---

func TestFullMultiroutingDiameter1(t *testing.T) {
	g := mustGen(t)(gen.Hypercube(3))
	m, info, err := FullMultirouting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Bound != 1 || info.Limit != 3 {
		t.Fatalf("info = %+v", info)
	}
	if err := eval.CheckTolerance(m, 1, info.T, exhaustiveCfg()); err != nil {
		t.Fatalf("Section 6 (1) violated: %v", err)
	}
}

func TestKernelMultiroutingDiameter3(t *testing.T) {
	g := mustGen(t)(gen.CCC(3))
	m, info, err := KernelMultirouting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Bound != 3 {
		t.Fatalf("info = %+v", info)
	}
	if err := eval.CheckTolerance(m, 3, info.T, exhaustiveCfg()); err != nil {
		t.Fatalf("Section 6 (2) violated: %v", err)
	}
}

func TestTwoRouteMultirouting(t *testing.T) {
	g := mustGen(t)(gen.CCC(3))
	m, info, err := TwoRouteMultirouting(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Limit != 2 {
		t.Fatalf("limit = %d", info.Limit)
	}
	if got := m.MaxRoutesPerPair(); got > 2 {
		t.Fatalf("pair carries %d routes", got)
	}
	if err := eval.CheckTolerance(m, info.Bound, info.T, exhaustiveCfg()); err != nil {
		t.Fatalf("Section 6 (3) violated: %v", err)
	}
}

func TestCliqueAugmentedKernel(t *testing.T) {
	g := mustGen(t)(gen.CCC(3))
	mod, r, info, err := CliqueAugmentedKernel(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	maxAdded := info.T * (info.T + 1) / 2
	if len(info.AddedEdges) > maxAdded {
		t.Fatalf("added %d edges > t(t+1)/2 = %d", len(info.AddedEdges), maxAdded)
	}
	if mod.M() != g.M()+len(info.AddedEdges) {
		t.Fatal("edge bookkeeping wrong")
	}
	if err := eval.CheckTolerance(r, 3, info.T, exhaustiveCfg()); err != nil {
		t.Fatalf("Section 6 (network change) violated: %v", err)
	}
	// The original graph must not have been mutated.
	for _, e := range info.AddedEdges {
		if g.HasEdge(e[0], e[1]) {
			t.Fatal("augmentation mutated the input graph")
		}
	}
}

// --- Auto planner ---

func TestAutoPicksTriCircularOnLongCycle(t *testing.T) {
	g := mustGen(t)(gen.Cycle(45))
	plan, err := Auto(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Construction != ConstructionTriCircular || plan.Bound != 4 {
		t.Fatalf("plan = %+v", plan)
	}
	if err := eval.CheckTolerance(plan.Routing, plan.Bound, plan.T, sampledCfg(100)); err != nil {
		t.Fatal(err)
	}
}

// TestAutoFallsBackToKernel: Q3 and C8 have no two-trees pair and too
// small a neighborhood set for the circular routings. The kernel's bound
// is max{2t, 4}, so C8 at t = 1 gets 4, not 2t = 2.
func TestAutoFallsBackToKernel(t *testing.T) {
	for _, tc := range []struct {
		name     string
		g        *graph.Graph
		bound, t int
	}{
		{"Q3", mustGen(t)(gen.Hypercube(3)), 4, 2},
		{"C8", mustGen(t)(gen.Cycle(8)), 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := Auto(tc.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Construction != ConstructionKernel || plan.Bound != tc.bound || plan.T != tc.t || !plan.Bidirected {
				t.Fatalf("plan = %+v", plan)
			}
			if err := eval.CheckTolerance(plan.Routing, plan.Bound, plan.T, exhaustiveCfg()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAutoPicksBipolarOnMediumCycle(t *testing.T) {
	// C12: tri-circular needs K=15 (unavailable: only 4 independent
	// depth-3-separated nodes); two-trees holds; bipolar wins over
	// circular.
	g := mustGen(t)(gen.Cycle(12))
	plan, err := Auto(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Construction != ConstructionBipolarUni || plan.Bound != 4 {
		t.Fatalf("plan = %+v", plan)
	}
}
