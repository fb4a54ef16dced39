package eval

import (
	"fmt"
	"ftroute/internal/eval/oracle"
	"math/rand"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// mixedSources are the testSources: routings and multiroutings both
// implement SurvivingGraphMixed, the oracle's rebuild path.
func mixedSources(t *testing.T) map[string]testSource {
	t.Helper()
	return testSources(t)
}

// sameMixedResult asserts bit-for-bit equality including both witness
// parts.
func sameMixedResult(t *testing.T, name string, got, want MixedResult) {
	t.Helper()
	if got.MaxDiameter != want.MaxDiameter || got.Disconnected != want.Disconnected ||
		got.Evaluated != want.Evaluated ||
		got.WorstNodeFaults.String() != want.WorstNodeFaults.String() ||
		fmt.Sprint(got.WorstEdgeFaults) != fmt.Sprint(want.WorstEdgeFaults) {
		t.Fatalf("%s: engine %v != legacy %v", name, got, want)
	}
}

// drawEdgeFaults picks k distinct random edges of g.
func drawEdgeFaults(rng *rand.Rand, g *graph.Graph, k int) []routing.EdgeFault {
	edges := g.Edges()
	if k > len(edges) {
		k = len(edges)
	}
	perm := rng.Perm(len(edges))
	out := make([]routing.EdgeFault, k)
	for i := 0; i < k; i++ {
		out[i] = routing.EdgeFault{U: edges[perm[i]][0], V: edges[perm[i]][1]}
	}
	return out
}

func TestMixedEngineMatchesSurvivingGraphMixed(t *testing.T) {
	for name, s := range mixedSources(t) {
		rng := rand.New(rand.NewSource(7))
		eng := NewEngine(s)
		g := s.Graph()
		n := g.N()
		for trial := 0; trial < 40; trial++ {
			nf := drawFaults(rng, n, rng.Intn(n/3+1))
			ef := drawEdgeFaults(rng, g, rng.Intn(3))
			eng.SetMixedFaults(nf, ef)
			d := s.SurvivingGraphMixed(nf, ef)
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					want := d.HasArc(u, v) && !nf.Has(u) && !nf.Has(v)
					if eng.HasArc(u, v) != want {
						t.Fatalf("%s F=%v E=%v: arc %d->%d engine=%v legacy=%v",
							name, nf, ef, u, v, eng.HasArc(u, v), want)
					}
				}
			}
			if eng.AliveCount() > 1 {
				gd, gok := eng.Diameter()
				wd, wok := d.Diameter()
				if gd != wd || gok != wok {
					t.Fatalf("%s F=%v E=%v: engine diameter (%d,%v) != legacy (%d,%v)",
						name, nf, ef, gd, gok, wd, wok)
				}
			}
			// DiameterExcluding must match disabling the same nodes in the
			// materialized mixed graph (the E14 reduction measurement).
			excl := drawFaults(rng, n, rng.Intn(n/3+1))
			for _, v := range excl.Elements() {
				if !d.Disabled(v) {
					d.Disable(v)
				}
			}
			gd, gok := eng.DiameterExcluding(excl)
			wd, wok := d.Diameter()
			if gd != wd || gok != wok {
				t.Fatalf("%s F=%v E=%v excl=%v: DiameterExcluding (%d,%v) != legacy (%d,%v)",
					name, nf, ef, excl, gd, gok, wd, wok)
			}
		}
		eng.Reset()
	}
}

func TestMixedIncrementalMatchesRebuild(t *testing.T) {
	// Random mixed toggle walk: after every single node- or edge-fault
	// toggle the engine must agree with a from-scratch rebuild.
	for name, s := range mixedSources(t) {
		rng := rand.New(rand.NewSource(23))
		eng := NewEngine(s)
		g := s.Graph()
		n := g.N()
		edges := g.Edges()
		nf := graph.NewBitset(n)
		efSet := make(map[int]bool)
		for step := 0; step < 120; step++ {
			if rng.Intn(2) == 0 {
				v := rng.Intn(n)
				if nf.Has(v) {
					nf.Remove(v)
					eng.RemoveFault(v)
				} else {
					nf.Add(v)
					eng.AddFault(v)
				}
			} else {
				i := rng.Intn(len(edges))
				if efSet[i] {
					delete(efSet, i)
					eng.RemoveEdgeFault(edges[i][0], edges[i][1])
				} else {
					efSet[i] = true
					eng.AddEdgeFault(edges[i][0], edges[i][1])
				}
			}
			var ef []routing.EdgeFault
			for i := range edges {
				if efSet[i] {
					ef = append(ef, routing.EdgeFault{U: edges[i][0], V: edges[i][1]})
				}
			}
			if eng.EdgeFaultCount() != len(ef) {
				t.Fatalf("%s: edge fault count %d != %d", name, eng.EdgeFaultCount(), len(ef))
			}
			if eng.AliveCount() <= 1 {
				continue
			}
			d := s.SurvivingGraphMixed(nf, ef)
			gd, gok := eng.Diameter()
			wd, wok := d.Diameter()
			if gd != wd || gok != wok {
				t.Fatalf("%s step %d F=%v E=%v: engine (%d,%v) != legacy (%d,%v)",
					name, step, nf, ef, gd, gok, wd, wok)
			}
		}
	}
}

func TestMixedExhaustiveEquivalence(t *testing.T) {
	for name, s := range mixedSources(t) {
		for f := 0; f <= 2; f++ {
			got := MaxDiameterMixed(s, f, Config{Mode: Exhaustive})
			want := fromOracleMixed(oracle.MaxDiameterMixed(s, f, oc(Config{Mode: Exhaustive})))
			sameMixedResult(t, fmt.Sprintf("%s f=%d", name, f), got, want)
		}
	}
}

func TestMixedExhaustiveSetCount(t *testing.T) {
	// C5 edge routing: universe is 5 nodes + 5 edges; f=2 evaluates
	// 1 + 10 + C(10,2) = 56 mixed sets.
	r := cycleRouting(t, 5)
	res := MaxDiameterMixed(r, 2, Config{Mode: Exhaustive})
	if res.Evaluated != 56 {
		t.Fatalf("evaluated = %d, want 56", res.Evaluated)
	}
	// f=0 evaluates the empty set only on both paths.
	for _, res := range []MixedResult{
		MaxDiameterMixed(r, 0, Config{Mode: Exhaustive}),
		fromOracleMixed(oracle.MaxDiameterMixed(r, 0, oc(Config{Mode: Exhaustive}))),
	} {
		if res.Evaluated != 1 || res.MaxDiameter != 2 {
			t.Fatalf("f=0 result = %v", res)
		}
	}
}

func TestMixedSampledGreedyEquivalence(t *testing.T) {
	for name, s := range mixedSources(t) {
		for _, cfg := range []Config{
			{Mode: Sampled, Samples: 30, Seed: 5},
			{Mode: Sampled, Samples: 30, Seed: 5, Greedy: true},
			{Mode: Sampled, Samples: 1, Seed: 9, Greedy: true},
		} {
			got := MaxDiameterMixed(s, 2, cfg)
			want := fromOracleMixed(oracle.MaxDiameterMixed(s, 2, oc(cfg)))
			sameMixedResult(t, name, got, want)
		}
	}
}

func TestMixedSampledClampsOversizedBudget(t *testing.T) {
	// f far beyond n+m must clamp to the universe size and terminate.
	r := cycleRouting(t, 5)
	cfg := Config{Mode: Sampled, Samples: 3, Seed: 1}
	for _, evaluated := range []int{
		MaxDiameterMixed(r, 999, cfg).Evaluated,
		oracle.MaxDiameterMixed(r, 999, oc(cfg)).Evaluated,
	} {
		if evaluated != 4 { // empty + 3 samples
			t.Fatalf("evaluated = %d, want 4", evaluated)
		}
	}
}

func TestMixedParallelEquivalence(t *testing.T) {
	for name, s := range mixedSources(t) {
		for _, cfg := range []Config{
			{Mode: Exhaustive},
			{Mode: Sampled, Samples: 20, Seed: 12, Greedy: true},
		} {
			want := MaxDiameterMixed(s, 2, cfg)
			for _, workers := range []int{2, 4} {
				got := MaxDiameterMixedParallel(s, 2, cfg, workers)
				sameMixedResult(t, fmt.Sprintf("%s mode=%d w=%d", name, cfg.Mode, workers), got, want)
			}
		}
	}
}

func TestGreedyMixedParallelEquivalence(t *testing.T) {
	// Deeper budgets exercise the parallel greedy phase across many
	// rounds: clone synchronization, the reduction tie-breaks, and the
	// disconnection early-return (a cycle disconnects after few cuts).
	for name, s := range mixedSources(t) {
		for _, f := range []int{1, 3, 5} {
			cfg := Config{Mode: Sampled, Samples: 5, Seed: 3, Greedy: true}
			want := MaxDiameterMixed(s, f, cfg)
			for _, workers := range []int{2, 3, 8} {
				got := MaxDiameterMixedParallel(s, f, cfg, workers)
				sameMixedResult(t, fmt.Sprintf("%s f=%d w=%d", name, f, workers), got, want)
			}
		}
	}
}

func TestGreedyEdgeAdversaryEquivalence(t *testing.T) {
	for name, s := range mixedSources(t) {
		got := GreedyEdgeAdversary(s, 2)
		want := fromOracleMixed(oracle.GreedyEdgeAdversary(s, 2))
		sameMixedResult(t, name, got, want)
		if got.WorstNodeFaults.Count() != 0 {
			t.Fatalf("%s: edge adversary produced node faults %v", name, got.WorstNodeFaults)
		}
	}
}

func TestConcentratorEdgeAdversaryEquivalence(t *testing.T) {
	for name, s := range mixedSources(t) {
		edges := s.Graph().Edges()
		targets := []routing.EdgeFault{
			{U: edges[0][0], V: edges[0][1]},
			{U: edges[len(edges)/2][1], V: edges[len(edges)/2][0]}, // reversed on purpose
			{U: edges[len(edges)-1][0], V: edges[len(edges)-1][1]},
			{U: edges[0][1], V: edges[0][0]}, // duplicate of the first, reversed
		}
		got := ConcentratorEdgeAdversary(s, 2, targets)
		want := fromOracleMixed(oracle.ConcentratorEdgeAdversary(s, 2, targets))
		sameMixedResult(t, name, got, want)
		// Three distinct targets: 1 + 3 + C(3,2) = 7 sets.
		if got.Evaluated != 7 {
			t.Fatalf("%s: evaluated %d, want 7", name, got.Evaluated)
		}
	}
}

func TestEdgeFaultNoOps(t *testing.T) {
	r := cycleRouting(t, 8)
	eng := NewEngine(r)
	base, _ := eng.Diameter()

	// Self-loop, out-of-range and non-edge faults are no-ops.
	eng.AddEdgeFault(3, 3)
	eng.AddEdgeFault(-1, 2)
	eng.AddEdgeFault(2, 99)
	eng.AddEdgeFault(0, 4) // C8 has no chord {0,4}
	if eng.EdgeFaultCount() != 0 {
		t.Fatalf("no-op faults were recorded: %v", eng.EdgeFaults())
	}
	if d, ok := eng.Diameter(); !ok || d != base {
		t.Fatalf("no-op faults changed the diameter: (%d,%v)", d, ok)
	}

	// Duplicate adds (in either endpoint order) count once; duplicate
	// removes are no-ops too.
	eng.AddEdgeFault(0, 1)
	eng.AddEdgeFault(1, 0)
	if eng.EdgeFaultCount() != 1 || !eng.HasEdgeFault(1, 0) {
		t.Fatalf("duplicate add miscounted: %d", eng.EdgeFaultCount())
	}
	d := r.SurvivingGraphMixed(nil, []routing.EdgeFault{{U: 0, V: 1}})
	gd, gok := eng.Diameter()
	wd, wok := d.Diameter()
	if gd != wd || gok != wok {
		t.Fatalf("after duplicate adds: engine (%d,%v) != legacy (%d,%v)", gd, gok, wd, wok)
	}
	eng.RemoveEdgeFault(0, 1)
	eng.RemoveEdgeFault(0, 1)
	if eng.EdgeFaultCount() != 0 {
		t.Fatal("duplicate remove miscounted")
	}
	if d, ok := eng.Diameter(); !ok || d != base {
		t.Fatalf("remove did not restore the fault-free state: (%d,%v)", d, ok)
	}
}

func TestOverlappingNodeAndEdgeFaults(t *testing.T) {
	// A node fault on u dominates an edge fault on {u,v}: adding and
	// removing the edge fault while u is down must leave every arc
	// exactly as under the node fault alone, and removing the node
	// fault afterwards must expose the edge fault's own damage.
	r := cycleRouting(t, 8)
	eng := NewEngine(r)
	eng.AddFault(0)
	nodeOnly, _ := eng.Diameter()
	eng.AddEdgeFault(0, 1)
	if d, ok := eng.Diameter(); !ok || d != nodeOnly {
		t.Fatalf("edge fault under node fault changed diameter: (%d,%v) want (%d,true)", d, ok, nodeOnly)
	}
	eng.RemoveFault(0)
	want := r.SurvivingGraphMixed(nil, []routing.EdgeFault{{U: 0, V: 1}})
	wd, wok := want.Diameter()
	gd, gok := eng.Diameter()
	if gd != wd || gok != wok {
		t.Fatalf("edge-only state after node removal: engine (%d,%v) != legacy (%d,%v)", gd, gok, wd, wok)
	}
	eng.RemoveEdgeFault(0, 1)
	if eng.DeadRouteCount() != 0 {
		t.Fatalf("dead routes remain after full removal: %d", eng.DeadRouteCount())
	}
}

func TestEngineResetClearsEdgeFaults(t *testing.T) {
	r := cycleRouting(t, 9)
	eng := NewEngine(r)
	eng.AddFault(2)
	eng.AddEdgeFault(4, 5)
	eng.AddEdgeFault(7, 8)
	eng.Reset()
	if eng.AliveCount() != 9 || eng.EdgeFaultCount() != 0 || eng.DeadRouteCount() != 0 {
		t.Fatalf("reset left state: alive=%d edges=%d dead=%d",
			eng.AliveCount(), eng.EdgeFaultCount(), eng.DeadRouteCount())
	}
	d, ok := eng.Diameter()
	if !ok || d != 4 {
		t.Fatalf("post-reset diameter (%d,%v), want (4,true)", d, ok)
	}
}

func TestEngineCloneCopiesEdgeFaults(t *testing.T) {
	r := cycleRouting(t, 10)
	eng := NewEngine(r)
	eng.AddEdgeFault(0, 1)
	c := eng.Clone()
	if !c.HasEdgeFault(0, 1) {
		t.Fatal("clone did not inherit edge fault")
	}
	c.AddEdgeFault(5, 6)
	if eng.HasEdgeFault(5, 6) {
		t.Fatal("clone edge fault leaked into parent")
	}
	eng.RemoveEdgeFault(0, 1)
	if !c.HasEdgeFault(0, 1) {
		t.Fatal("parent removal leaked into clone")
	}
}

// TestEdgeFaultKillsFewerRoutesThanEndpoints checks the paper's Section
// 1 justification empirically: every route traversing edge {u,v}
// contains both endpoints, so an edge fault kills a subset of the
// routes either endpoint fault kills — and on any nontrivial routing a
// strictly smaller set, which is why the endpoint reduction "can only
// weaken" the results.
func TestEdgeFaultKillsFewerRoutesThanEndpoints(t *testing.T) {
	for name, s := range mixedSources(t) {
		eng := NewEngine(s)
		strict := false
		for _, ed := range s.Graph().Edges() {
			eng.AddEdgeFault(ed[0], ed[1])
			edgeKills := eng.DeadRouteCount()
			eng.RemoveEdgeFault(ed[0], ed[1])
			for _, endpoint := range ed {
				eng.AddFault(endpoint)
				nodeKills := eng.DeadRouteCount()
				eng.RemoveFault(endpoint)
				if edgeKills > nodeKills {
					t.Fatalf("%s edge %v: edge fault kills %d routes, endpoint %d kills %d",
						name, ed, edgeKills, endpoint, nodeKills)
				}
				if edgeKills < nodeKills {
					strict = true
				}
			}
		}
		if !strict {
			t.Fatalf("%s: no edge fault killed strictly fewer routes than an endpoint", name)
		}
	}
}

func TestBeyondToleranceMixedEquivalence(t *testing.T) {
	for name, s := range mixedSources(t) {
		for f := 1; f <= 2; f++ {
			got := BeyondToleranceMixed(s, f)
			want := fromOracleBeyond(oracle.BeyondToleranceMixed(s, f))
			if got.Evaluated != want.Evaluated || got.GraphConnected != want.GraphConnected ||
				got.Shattered != want.Shattered ||
				got.WorstComponentDiameter != want.WorstComponentDiameter ||
				got.WorstFaults.String() != want.WorstFaults.String() ||
				fmt.Sprint(got.WorstEdgeFaults) != fmt.Sprint(want.WorstEdgeFaults) {
				t.Fatalf("%s f=%d: engine %+v != legacy %+v", name, f, got, want)
			}
		}
	}
}

func TestBeyondToleranceMixedSemantics(t *testing.T) {
	// C6 edge routing, mixed sets of size exactly 2 over 6 nodes + 6
	// edges: C(12,2) = 66 sets. Cutting two links splits the cycle into
	// two paths; the surviving route graph within each component is the
	// path itself, so nothing ever shatters and the worst component
	// diameter is 4 (a 5-node path after cutting two adjacent-ish links).
	r := cycleRouting(t, 6)
	res := BeyondToleranceMixed(r, 2)
	if res.Evaluated != 66 {
		t.Fatalf("evaluated = %d, want 66", res.Evaluated)
	}
	if res.Shattered != 0 {
		t.Fatalf("edge routing shattered %d times", res.Shattered)
	}
	if res.WorstComponentDiameter != 4 {
		t.Fatalf("worst component diameter = %d, want 4", res.WorstComponentDiameter)
	}
	// Node-only sets agree with the node-only analysis: mixed with zero
	// edge faults must not report more connected sets than node-only
	// does over its universe.
	nodeOnly := BeyondTolerance(r, 2)
	if res.GraphConnected < nodeOnly.GraphConnected {
		t.Fatalf("mixed connected %d < node-only %d", res.GraphConnected, nodeOnly.GraphConnected)
	}
}

// TestMixedComponentsCutEdges: the item set of a mixed fault set (set)
// blocks its links in the component query BeyondToleranceMixed makes,
// and its nodes as a node-only set does.
func TestMixedComponentsCutEdges(t *testing.T) {
	r := cycleRouting(t, 6)
	ix := graph.NewItems(r.Graph())
	// Cutting links {0,1} and {3,4} splits C6 into {1,2,3} and {0,4,5}.
	comps := ix.Components(set(ix, nil, []routing.EdgeFault{{U: 1, V: 0}, {U: 3, V: 4}}))
	if len(comps) != 2 {
		t.Fatalf("components = %v", comps)
	}
	if fmt.Sprint(comps[0]) != "[0 4 5]" || fmt.Sprint(comps[1]) != "[1 2 3]" {
		t.Fatalf("components = %v", comps)
	}
	// With no edge faults it must agree with the node-only set.
	a := ix.Components(set(ix, []int{2}, nil))
	b := ix.Components(graph.BitsetOf(6, 2))
	if fmt.Sprint(a) != fmt.Sprint(b) || fmt.Sprint(a) != "[[0 1 3 4 5]]" {
		t.Fatalf("item set %v != node set %v", a, b)
	}
}

func TestMixedFacadeRouting(t *testing.T) {
	// Spot-check the literal mixed semantics end to end: on the C6 edge
	// routing, failing edge {0,1} plus node 3 leaves a path graph whose
	// diameter the engine and legacy paths agree on.
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r := routing.NewBidirectional(g)
	if err := r.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	res := MaxDiameterMixed(r, 2, Config{Mode: Exhaustive})
	if !res.Disconnected {
		t.Fatal("two mixed faults disconnect the C6 edge routing")
	}
	want := fromOracleMixed(oracle.MaxDiameterMixed(r, 2, oc(Config{Mode: Exhaustive})))
	sameMixedResult(t, "c6", res, want)
}
