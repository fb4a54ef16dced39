package ftroute

import (
	"testing"
)

// TestQuickstart exercises the package-doc example end to end.
func TestQuickstart(t *testing.T) {
	g, err := CCC(4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Auto(g, Options{Tolerance: 2})
	if err != nil {
		t.Fatal(err)
	}
	faults := FaultsOf(g.N(), 3, 17)
	surviving := plan.Routing.SurvivingGraph(faults)
	diam, ok := surviving.Diameter()
	if !ok {
		t.Fatal("surviving graph disconnected under 2 faults")
	}
	if diam > plan.Bound {
		t.Fatalf("diameter %d exceeds planned bound %d", diam, plan.Bound)
	}
}

func TestFacadeConnectivity(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	k, sep, err := VertexConnectivity(g)
	if err != nil || k != 4 || len(sep) != 4 {
		t.Fatalf("κ=%d sep=%v err=%v", k, sep, err)
	}
	ok, err := IsKConnected(g, 4)
	if err != nil || !ok {
		t.Fatal("Q4 should be 4-connected")
	}
}

func TestFacadeKernelTolerance(t *testing.T) {
	g, err := Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	r, info, err := Kernel(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTolerance(r, 4, info.T, EvalConfig{Mode: Exhaustive}); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeProfile(t *testing.T) {
	g, err := Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Circular(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	profile := DiameterProfile(r, 1, EvalConfig{Mode: Exhaustive})
	if len(profile) != 2 {
		t.Fatalf("profile = %v", profile)
	}
	if profile[0] > profile[1] {
		t.Fatalf("diameter should not shrink with faults: %v", profile)
	}
	if profile[1] > 6 {
		t.Fatalf("Theorem 10 violated in profile: %v", profile)
	}
}

func TestFacadeShortestPathBaseline(t *testing.T) {
	g, err := Grid(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := ShortestPathRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	res := MaxDiameterUnderFaults(sp, 1, EvalConfig{Mode: Exhaustive})
	if res.Evaluated == 0 {
		t.Fatal("no fault sets evaluated")
	}
}

func TestFacadeGraphConstruction(t *testing.T) {
	g := NewGraph(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 0)
	r := NewBidirectionalRouting(g)
	if err := r.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	d := r.SurvivingGraph(NewFaults(4))
	if got, ok := d.Diameter(); !ok || got != 2 {
		t.Fatalf("C4 edge-routing diameter = (%d,%v)", got, ok)
	}
}

func TestFacadeEvalEngine(t *testing.T) {
	g, err := CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	var _ RouteSource = r // Routing satisfies the engine's interface
	eng := NewEvalEngine(r)
	d0, ok := eng.Diameter()
	if !ok {
		t.Fatal("fault-free routing must be connected")
	}
	eng.AddFault(0)
	d1, ok := eng.Diameter()
	if !ok || d1 < d0 {
		t.Fatalf("diameter under one fault = (%d,%v), fault-free %d", d1, ok, d0)
	}
	eng.RemoveFault(0)
	if got, ok := eng.Diameter(); !ok || got != d0 {
		t.Fatalf("fault removal must restore the fault-free diameter: (%d,%v) != %d", got, ok, d0)
	}

	seq := MaxDiameterUnderFaults(r, 1, EvalConfig{Mode: Exhaustive})
	par := MaxDiameterUnderFaultsParallel(r, 1, EvalConfig{Mode: Exhaustive}, 4)
	if seq.MaxDiameter != par.MaxDiameter || seq.Evaluated != par.Evaluated ||
		seq.WorstNodeFaults.String() != par.WorstNodeFaults.String() {
		t.Fatalf("parallel %v != sequential %v", par, seq)
	}

	conc := ConcentratorAdversary(r, 1, []int{0, 1})
	if conc.Evaluated != 3 {
		t.Fatalf("concentrator adversary evaluated %d sets, want 3", conc.Evaluated)
	}
}

func TestFacadeMixedFaults(t *testing.T) {
	g, err := Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	var _ RouteSource = r // Routing satisfies the evaluation interface

	// Literal link failure: the direct route over a dead edge dies, the
	// rest of the routing survives.
	d := r.SurvivingGraphMixed(nil, []EdgeFault{{U: 0, V: 1}})
	if d.HasArc(0, 1) {
		t.Fatal("route over the failed link must die")
	}

	seq := MaxDiameterUnderMixedFaults(r, 1, EvalConfig{Mode: Exhaustive})
	par := MaxDiameterUnderMixedFaultsParallel(r, 1, EvalConfig{Mode: Exhaustive}, 4)
	if seq.MaxDiameter != par.MaxDiameter || seq.Evaluated != par.Evaluated {
		t.Fatalf("parallel %v != sequential %v", par, seq)
	}
	// Universe is 9 nodes + 9 edges: 1 + 18 singleton sets.
	if seq.Evaluated != 19 {
		t.Fatalf("evaluated %d sets, want 19", seq.Evaluated)
	}

	adv := GreedyEdgeAdversary(r, 1)
	if adv.WorstNodeFaults.Count() != 0 {
		t.Fatalf("edge adversary must not fail nodes: %v", adv.WorstNodeFaults)
	}
	conc := ConcentratorEdgeAdversary(r, 1, []EdgeFault{{U: 0, V: 1}, {U: 1, V: 2}})
	if conc.Evaluated != 3 {
		t.Fatalf("concentrator edge adversary evaluated %d sets, want 3", conc.Evaluated)
	}
}
