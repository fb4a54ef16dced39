package eval

import (
	"fmt"
	"reflect"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
	"ftroute/internal/sym"
)

// transported builds a graph by name together with a shortest-path
// routing transported to be strictly equivariant under a pair-free
// automorphism subgroup — the kind of routing Config.Pruned engages on.
func transported(t *testing.T, name string) (*graph.Graph, *routing.Routing) {
	t.Helper()
	var g *graph.Graph
	var err error
	switch name {
	case "CCC(3)":
		g, err = gen.CCC(3)
	case "CCC(4)":
		g, err = gen.CCC(4)
	case "Q3":
		g, err = gen.Hypercube(3)
	case "Q4":
		g, err = gen.Hypercube(4)
	case "C9":
		g, err = gen.Cycle(9)
	default:
		t.Fatalf("unknown graph %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	gr := sym.Automorphisms(g)
	elems := sym.Elements(gr.N, gr.Gens, sym.ElementCap)
	if elems == nil {
		t.Fatalf("%s: automorphism group over cap", name)
	}
	free := sym.FreePairSubgroup(elems)
	if len(free) <= 1 {
		t.Fatalf("%s: no nontrivial pair-free subgroup", name)
	}
	tr, err := sym.TransportRouting(g, r, free)
	if err != nil {
		t.Fatal(err)
	}
	return g, tr
}

var prunedGraphs = []string{"CCC(3)", "Q3", "C9", "CCC(4)"}

// scoreOf re-evaluates a node-fault witness from scratch.
func scoreOf(r *routing.Routing, faults *graph.Bitset) MixedResult {
	eng := NewEngine(r)
	eng.SetFaults(faults)
	d, ok := eng.Diameter()
	return MixedResult{MaxDiameter: d, Disconnected: !ok, WorstNodeFaults: faults}
}

// scoreOfMixed re-evaluates a mixed witness from scratch.
func scoreOfMixed(r *routing.Routing, nodes *graph.Bitset, edges []routing.EdgeFault) MixedResult {
	eng := NewEngine(r)
	eng.SetMixedFaults(nodes, edges)
	d, ok := eng.Diameter()
	return MixedResult{MaxDiameter: d, Disconnected: !ok, WorstNodeFaults: nodes, WorstEdgeFaults: edges}
}

func TestPrunedMatchesPlainMaxDiameter(t *testing.T) {
	for _, name := range prunedGraphs {
		g, r := transported(t, name)
		for f := 1; f <= 2; f++ {
			plain := MaxDiameter(r, f, Config{Mode: Exhaustive})
			pruned := MaxDiameter(r, f, Config{Mode: Exhaustive, Pruned: true})
			if !reflect.DeepEqual(pruned, plain) {
				t.Fatalf("%s f=%d: pruned %v, plain %v", name, f, pruned, plain)
			}
			if pruned.WorstNodeFaults.Count() > f {
				t.Fatalf("%s f=%d: witness %v over budget", name, f, pruned.WorstNodeFaults)
			}
			// The canonical witness must achieve the reported worst case.
			// (MaxDiameter under a disconnecting result is the max over
			// the connected sets, not a property of the witness.)
			w := scoreOf(r, pruned.WorstNodeFaults)
			if w.Disconnected != pruned.Disconnected ||
				(!pruned.Disconnected && w.MaxDiameter != pruned.MaxDiameter) {
				t.Fatalf("%s f=%d: witness scores %v, result claims %v", name, f, w, pruned)
			}
			// The node plan must actually engage (else the test is vacuous).
			if plan := routingReps(r, f, false); plan == nil {
				t.Fatalf("%s: the node plan fell back on a transported routing", name)
			} else if len(plan.sets) >= plain.Evaluated-1 {
				t.Fatalf("%s f=%d: %d reps for %d sets — no pruning", name, f, len(plan.sets), plain.Evaluated-1)
			}
		}
		_ = g
	}
}

func TestPrunedMatchesPlainMaxDiameterMixed(t *testing.T) {
	for _, name := range prunedGraphs {
		_, r := transported(t, name)
		f := 2
		plain := MaxDiameterMixed(r, f, Config{Mode: Exhaustive})
		pruned := MaxDiameterMixed(r, f, Config{Mode: Exhaustive, Pruned: true})
		if !reflect.DeepEqual(pruned, plain) {
			t.Fatalf("%s: pruned %v, plain %v", name, pruned, plain)
		}
		w := scoreOfMixed(r, pruned.WorstNodeFaults, pruned.WorstEdgeFaults)
		if w.Disconnected != pruned.Disconnected ||
			(!pruned.Disconnected && w.MaxDiameter != pruned.MaxDiameter) {
			t.Fatalf("%s: witness scores %v, result claims %v", name, w, pruned)
		}
	}
}

func TestPrunedMatchesPlainParallel(t *testing.T) {
	_, r := transported(t, "CCC(3)")
	for f := 1; f <= 3; f++ {
		serial := MaxDiameter(r, f, Config{Mode: Exhaustive, Pruned: true})
		par := MaxDiameterParallel(r, f, Config{Mode: Exhaustive, Pruned: true}, 4)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("f=%d: serial pruned %v, parallel pruned %v", f, serial, par)
		}
		plain := MaxDiameter(r, f, Config{Mode: Exhaustive})
		if !reflect.DeepEqual(par, plain) {
			t.Fatalf("f=%d: parallel pruned %v, plain %v", f, par, plain)
		}
	}
	serialM := MaxDiameterMixed(r, 2, Config{Mode: Exhaustive, Pruned: true})
	parM := MaxDiameterMixedParallel(r, 2, Config{Mode: Exhaustive, Pruned: true}, 4)
	if !reflect.DeepEqual(serialM, parM) {
		t.Fatalf("mixed: serial pruned %v, parallel pruned %v", serialM, parM)
	}
}

func TestPrunedCutsMatchPlain(t *testing.T) {
	for _, name := range prunedGraphs {
		g, r := transported(t, name)
		ft := routing.FailoverFromRouting(r)
		budgets := []int{1, 2}
		if name == "CCC(4)" {
			budgets = []int{1} // budget 2 plain is ~5k engine sets; covered by the bench
		}
		for _, b := range budgets {
			plain := WorstLinkCuts(ft, g, b, Config{Mode: Exhaustive})
			pruned := WorstLinkCuts(ft, g, b, Config{Mode: Exhaustive, Pruned: true})
			if !reflect.DeepEqual(pruned, plain) {
				t.Fatalf("%s b=%d: pruned %v, plain %v", name, b, pruned, plain)
			}
			if got := EvaluateMixedFaults(ft, nil, pruned.WorstCuts); got != pruned.Stats {
				t.Fatalf("%s b=%d: witness %v re-evaluates to %v, result claims %v",
					name, b, pruned.WorstCuts, got, pruned.Stats)
			}
			par := WorstLinkCutsParallel(ft, g, b, Config{Mode: Exhaustive, Pruned: true}, 4)
			if !reflect.DeepEqual(pruned, par) {
				t.Fatalf("%s b=%d: serial pruned %v, parallel pruned %v", name, b, pruned, par)
			}
			if plan := tableReps(ft, g, b, false); plan == nil {
				t.Fatalf("%s: the cut plan fell back on transported tables", name)
			}
		}
	}
}

func TestPrunedMixedFaultsMatchPlain(t *testing.T) {
	for _, name := range prunedGraphs {
		g, r := transported(t, name)
		ft := routing.FailoverFromRouting(r)
		budgets := []int{1, 2}
		if name == "CCC(4)" {
			budgets = []int{1}
		}
		for _, b := range budgets {
			plain := WorstMixedFaults(ft, g, b, Config{Mode: Exhaustive})
			pruned := WorstMixedFaults(ft, g, b, Config{Mode: Exhaustive, Pruned: true})
			if !reflect.DeepEqual(pruned, plain) {
				t.Fatalf("%s b=%d: pruned %v, plain %v", name, b, pruned, plain)
			}
			if got := EvaluateMixedFaults(ft, pruned.WorstNodes, pruned.WorstCuts); got != pruned.Stats {
				t.Fatalf("%s b=%d: witness re-evaluates to %v, result claims %v", name, b, got, pruned.Stats)
			}
			par := WorstMixedFaultsParallel(ft, g, b, Config{Mode: Exhaustive, Pruned: true}, 4)
			if !reflect.DeepEqual(pruned, par) {
				t.Fatalf("%s b=%d: serial pruned %v, parallel pruned %v", name, b, pruned, par)
			}
			if plan := tableReps(ft, g, b, true); plan == nil {
				t.Fatalf("%s: the mixed cut plan fell back on transported tables", name)
			}
		}
	}
}

// TestPrunedMatchesPlainOnConstructions runs every pruned search on
// the paper's routings (and the shortest-path baseline) wherever the
// plans engage on these graphs, and requires the plain result, witness
// included. It cannot differ: a representative is the lex-min member
// of its orbit, so the orbit's first set in the plain preorder, the
// plan visits representatives in that preorder, and every score is
// constant on orbits, so the first set to reach the final score is a
// representative.
func TestPrunedMatchesPlainOnConstructions(t *testing.T) {
	for _, tc := range []struct {
		spec string
		c    core.Construction // "" for the shortest-path routing
	}{
		{"cycle:9", ""}, {"cycle:9", core.ConstructionKernel}, {"cycle:9", core.ConstructionCircular},
		{"cycle:12", ""}, {"cycle:12", core.ConstructionKernel}, {"cycle:12", core.ConstructionBipolarUni},
		{"petersen", ""}, {"petersen", core.ConstructionKernel},
		{"wheel:9", ""}, {"wheel:9", core.ConstructionKernel},
		{"harary:4x12", core.ConstructionKernel},
		{"hypercube:3", ""},
		{"torus:4x4", ""},
	} {
		t.Run(tc.spec+" "+string(tc.c), func(t *testing.T) {
			g, err := gen.Parse(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			r, err := routing.ShortestPath(g)
			if err != nil {
				t.Fatal(err)
			}
			if tc.c != "" {
				p, err := core.Build(g, tc.c, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				r = p.Routing
			}
			ft := routing.FailoverFromRouting(r)
			if routingReps(r, 2, true) == nil || tableReps(ft, g, 2, true) == nil {
				t.Fatal("a plan fell back")
			}
			plain, pruned := Config{Mode: Exhaustive}, Config{Mode: Exhaustive, Pruned: true}
			same := func(what string, p, q any) {
				t.Helper()
				if !reflect.DeepEqual(p, q) {
					t.Fatalf("%s: plain %v, pruned %v", what, p, q)
				}
			}
			for f := 1; f <= 3; f++ {
				for _, w := range []int{1, 3} {
					same(fmt.Sprintf("nodes f=%d, %d workers", f, w),
						MaxDiameterParallel(r, f, plain, w), MaxDiameterParallel(r, f, pruned, w))
				}
			}
			for b := 1; b <= 2; b++ {
				same(fmt.Sprintf("mixed f=%d", b), MaxDiameterMixed(r, b, plain), MaxDiameterMixed(r, b, pruned))
				same(fmt.Sprintf("cuts b=%d", b), WorstLinkCuts(ft, g, b, plain), WorstLinkCuts(ft, g, b, pruned))
				for _, lambda := range []float64{0, 0.5, 2} {
					pl, pr := plain, pruned
					pl.SkippedWeight, pr.SkippedWeight = lambda, lambda
					same(fmt.Sprintf("mixed walks b=%d λ=%g", b, lambda),
						WorstMixedFaults(ft, g, b, pl), WorstMixedFaults(ft, g, b, pr))
				}
			}
		})
	}
}

// TestPrunedCCC4MixedFactor pins the headline acceptance number: on
// CCC(4)'s 12,880 non-empty mixed fault sets at f=2, orbit pruning must
// enumerate at least 10x fewer representatives.
func TestPrunedCCC4MixedFactor(t *testing.T) {
	g, r := transported(t, "CCC(4)")
	ft := routing.FailoverFromRouting(r)
	plan := tableReps(ft, g, 2, true)
	if plan == nil {
		t.Fatal("the mixed cut plan fell back on transported CCC(4) tables")
	}
	total := 0
	for _, m := range plan.mults {
		total += m
	}
	if total != 12880 {
		t.Fatalf("orbit sizes sum to %d, want 12880 non-empty sets", total)
	}
	if len(plan.sets)*10 > total {
		t.Fatalf("only %dx pruning (%d reps for %d sets), want >= 10x",
			total/len(plan.sets), len(plan.sets), total)
	}
	if plan2 := routingReps(r, 2, true); plan2 == nil {
		t.Fatal("the mixed plan fell back on the transported CCC(4) routing")
	}
}

// TestPrunedFallsBack checks the fallback triggers: a graph with a
// trivial automorphism group, and a routing that may not respect its
// graph's symmetry. Results must match the plain search bit for bit.
func TestPrunedFallsBack(t *testing.T) {
	// Smallest asymmetric tree: path 0-1-2-3-4-5 plus leaf 6 on node 2.
	g := graph.New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 6}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if plan := routingReps(r, 2, false); plan != nil {
		t.Fatalf("the node plan engaged on an asymmetric graph: %d reps", len(plan.sets))
	}
	plain := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	pruned := MaxDiameter(r, 2, Config{Mode: Exhaustive, Pruned: true})
	if !reflect.DeepEqual(plain, pruned) {
		t.Fatalf("fallback result differs: pruned %v, plain %v", pruned, plain)
	}

	// A raw (untransported) routing on a symmetric graph may or may not
	// respect the group; either way Pruned must not change the answer.
	pg := gen.Petersen()
	pr, err := routing.ShortestPath(pg)
	if err != nil {
		t.Fatal(err)
	}
	a := MaxDiameter(pr, 2, Config{Mode: Exhaustive})
	b := MaxDiameter(pr, 2, Config{Mode: Exhaustive, Pruned: true})
	if a.MaxDiameter != b.MaxDiameter || a.Disconnected != b.Disconnected || a.Evaluated != b.Evaluated {
		t.Fatalf("Pruned changed the answer on Petersen: %v vs %v", b, a)
	}
	ft := routing.FailoverFromRouting(pr)
	ca := WorstLinkCuts(ft, pg, 2, Config{Mode: Exhaustive})
	cb := WorstLinkCuts(ft, pg, 2, Config{Mode: Exhaustive, Pruned: true})
	if ca.Stats != cb.Stats || ca.Evaluated != cb.Evaluated {
		t.Fatalf("Pruned changed the cut answer on Petersen: %v vs %v", cb, ca)
	}
}

func TestPrunedCheckTolerance(t *testing.T) {
	_, r := transported(t, "CCC(3)")
	base := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	if base.Disconnected {
		t.Fatal("transported CCC(3) should survive 2 node faults")
	}
	for _, cfg := range []Config{{Mode: Exhaustive}, {Mode: Exhaustive, Pruned: true}} {
		if err := CheckTolerance(r, base.MaxDiameter, 2, cfg); err != nil {
			t.Fatalf("cfg %+v: %v", cfg, err)
		}
		if err := CheckTolerance(r, base.MaxDiameter-1, 2, cfg); err == nil {
			t.Fatalf("cfg %+v: claimed tolerance below the true worst case", cfg)
		}
	}
}
