package eval

import (
	"strings"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// edgeRoutingOn returns the bidirectional edge routing over g: the
// surviving graph under F is exactly g minus F, which makes expected
// diameters easy to reason about in tests.
func edgeRoutingOn(t *testing.T, g *graph.Graph) *routing.Routing {
	t.Helper()
	r := routing.NewBidirectional(g)
	if err := r.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	return r
}

func cycleRouting(t *testing.T, n int) *routing.Routing {
	t.Helper()
	g, err := gen.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	return edgeRoutingOn(t, g)
}

func TestExhaustiveCycleEdgeRouting(t *testing.T) {
	// C6 edge routing: no faults -> diameter 3; one fault -> the
	// survivors form P5 -> diameter 4; so max over |F| <= 1 is 4.
	r := cycleRouting(t, 6)
	res := MaxDiameter(r, 1, Config{Mode: Exhaustive})
	if res.Disconnected {
		t.Fatal("C6 minus one node stays connected")
	}
	if res.MaxDiameter != 4 {
		t.Fatalf("max diameter = %d, want 4", res.MaxDiameter)
	}
	if res.Evaluated != 7 { // empty + 6 singletons
		t.Fatalf("evaluated = %d, want 7", res.Evaluated)
	}
	if res.WorstNodeFaults.Count() != 1 {
		t.Fatalf("worst faults = %v", res.WorstNodeFaults)
	}
}

func TestExhaustiveDetectsDisconnection(t *testing.T) {
	// C6 with two faults: antipodal faults disconnect it.
	r := cycleRouting(t, 6)
	res := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	if !res.Disconnected {
		t.Fatal("two faults must disconnect C6's edge routing")
	}
	if res.WorstNodeFaults.Count() != 2 {
		t.Fatalf("worst faults = %v", res.WorstNodeFaults)
	}
	if !strings.Contains(res.String(), "disconnected") {
		t.Fatalf("String() = %q", res.String())
	}
}

func TestExhaustiveEvaluatedCount(t *testing.T) {
	r := cycleRouting(t, 5)
	res := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	// 1 + C(5,1) + C(5,2) = 1 + 5 + 10 = 16.
	if res.Evaluated != 16 {
		t.Fatalf("evaluated = %d, want 16", res.Evaluated)
	}
}

func TestSampledDeterminism(t *testing.T) {
	r := cycleRouting(t, 12)
	cfg := Config{Mode: Sampled, Samples: 50, Seed: 9}
	a := MaxDiameter(r, 1, cfg)
	b := MaxDiameter(r, 1, cfg)
	if a.MaxDiameter != b.MaxDiameter || a.Evaluated != b.Evaluated {
		t.Fatal("sampled evaluation must be deterministic in the seed")
	}
}

func TestSampledNeverExceedsExhaustive(t *testing.T) {
	r := cycleRouting(t, 9)
	ex := MaxDiameter(r, 1, Config{Mode: Exhaustive})
	sa := MaxDiameter(r, 1, Config{Mode: Sampled, Samples: 300, Seed: 4, Greedy: true})
	if sa.Disconnected && !ex.Disconnected {
		t.Fatal("sampling found a disconnection exhaustive search did not")
	}
	if sa.MaxDiameter > ex.MaxDiameter {
		t.Fatalf("sampled %d > exhaustive %d", sa.MaxDiameter, ex.MaxDiameter)
	}
	// With 300 samples over 9 singletons, sampling should find the max.
	if sa.MaxDiameter != ex.MaxDiameter {
		t.Fatalf("sampled %d, exhaustive %d", sa.MaxDiameter, ex.MaxDiameter)
	}
}

func TestGreedyAdversaryFindsWorstSingleFault(t *testing.T) {
	// Star-of-path: greedy should pick the cut node.
	g := graph.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(2, 4)
	r := edgeRoutingOn(t, g)
	res := MaxDiameter(r, 1, Config{Mode: Sampled, Samples: 0, Greedy: true, Seed: 1})
	_ = res
	if !res.Disconnected {
		t.Fatal("greedy adversary should disconnect by killing node 2")
	}
	if !res.WorstNodeFaults.Has(2) && !res.WorstNodeFaults.Has(1) {
		t.Fatalf("worst faults = %v", res.WorstNodeFaults)
	}
}

func TestCheckTolerance(t *testing.T) {
	r := cycleRouting(t, 6)
	if err := CheckTolerance(r, 4, 1, Config{Mode: Exhaustive}); err != nil {
		t.Fatalf("C6 edge routing is (4,1)-tolerant: %v", err)
	}
	if err := CheckTolerance(r, 3, 1, Config{Mode: Exhaustive}); err == nil {
		t.Fatal("(3,1) claim should fail")
	}
	if err := CheckTolerance(r, 10, 2, Config{Mode: Exhaustive}); err == nil {
		t.Fatal("disconnection should fail any claim")
	}
}

func TestProfileShape(t *testing.T) {
	r := cycleRouting(t, 8)
	p := Profile(r, 2, Config{Mode: Exhaustive})
	want := []int{4, 6, -1} // C8: diam 4; minus 1 node: P7 diam 6; minus 2: can disconnect
	if len(p) != 3 {
		t.Fatalf("profile = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("profile = %v, want %v", p, want)
		}
	}
}

func TestProfileSampledMode(t *testing.T) {
	r := cycleRouting(t, 10)
	p := Profile(r, 1, Config{Mode: Sampled, Samples: 60, Seed: 2})
	if p[0] != 5 {
		t.Fatalf("fault-free diameter = %d, want 5", p[0])
	}
	if p[1] < p[0] {
		t.Fatalf("profile should not shrink: %v", p)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r := edgeRoutingOn(t, g)
	seq := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	for _, workers := range []int{1, 2, 3, 8} {
		par := MaxDiameterParallel(r, 2, Config{Mode: Exhaustive}, workers)
		if par.MaxDiameter != seq.MaxDiameter || par.Disconnected != seq.Disconnected {
			t.Fatalf("workers=%d: parallel (%d,%v) != sequential (%d,%v)",
				workers, par.MaxDiameter, par.Disconnected, seq.MaxDiameter, seq.Disconnected)
		}
		if par.Evaluated != seq.Evaluated {
			t.Fatalf("workers=%d: evaluated %d != %d", workers, par.Evaluated, seq.Evaluated)
		}
	}
}

func TestParallelFallsBackOnSampled(t *testing.T) {
	r := cycleRouting(t, 10)
	cfg := Config{Mode: Sampled, Samples: 30, Seed: 5}
	a := MaxDiameterParallel(r, 1, cfg, 4)
	b := MaxDiameter(r, 1, cfg)
	if a.MaxDiameter != b.MaxDiameter {
		t.Fatal("sampled mode should delegate to the sequential path")
	}
}

func TestConcentratorAdversary(t *testing.T) {
	r := cycleRouting(t, 8)
	// Restrict the adversary to nodes {0,4}: worst single fault among
	// those must match exhaustive restricted to them.
	res := ConcentratorAdversary(r, 1, []int{0, 4})
	if res.Evaluated != 3 { // empty, {0}, {4}
		t.Fatalf("evaluated = %d", res.Evaluated)
	}
	if res.MaxDiameter != 6 { // P7 diameter
		t.Fatalf("max diameter = %d", res.MaxDiameter)
	}
}

func TestConcentratorAdversaryPairs(t *testing.T) {
	r := cycleRouting(t, 8)
	res := ConcentratorAdversary(r, 2, []int{0, 4})
	if !res.Disconnected {
		t.Fatal("killing both 0 and 4 disconnects C8")
	}
	if res.Evaluated != 4 {
		t.Fatalf("evaluated = %d", res.Evaluated)
	}
}

func TestResultString(t *testing.T) {
	res := MixedResult{MaxDiameter: 5, WorstNodeFaults: graph.BitsetOf(4, 1), Evaluated: 10}
	if !strings.Contains(res.String(), "max diameter 5") {
		t.Fatalf("String = %q", res.String())
	}
}

func TestEmptyishGraphs(t *testing.T) {
	// Two nodes, one edge: failing either node leaves a single node —
	// nothing to route, diameter contribution 0, no disconnection.
	g := graph.New(2)
	g.MustAddEdge(0, 1)
	r := edgeRoutingOn(t, g)
	res := MaxDiameter(r, 1, Config{Mode: Exhaustive})
	if res.Disconnected || res.MaxDiameter != 1 {
		t.Fatalf("result = %+v", res)
	}
}

// newSingleRouteRouting builds a routing holding only the path 0-1-2-3,
// used to exercise shattering detection.
func newSingleRouteRouting(t *testing.T, g *graph.Graph) *routing.Routing {
	t.Helper()
	r := routing.NewBidirectional(g)
	if err := r.Set(routing.Path{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	return r
}
