package eval

import (
	"fmt"
	"ftroute/internal/eval/oracle"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// testSources builds a spread of routings: edge routings, shortest-path
// routings on random graphs, a paper construction, a deliberately
// fragile routing, and two multiroutings, one whose pairs all have two
// routes and one that mixes one-route and two-route pairs.
func testSources(t *testing.T) map[string]testSource {
	t.Helper()
	srcs := make(map[string]testSource)

	srcs["cycle8-edge"] = cycleRouting(t, 8)

	pet := gen.Petersen()
	sp, err := routing.ShortestPath(pet)
	if err != nil {
		t.Fatal(err)
	}
	srcs["petersen-sp"] = sp

	rg, _, err := gen.RandomRegularConnected(14, 3, 11, 50)
	if err != nil {
		t.Fatal(err)
	}
	rsp, err := routing.ShortestPath(rg)
	if err != nil {
		t.Fatal(err)
	}
	srcs["rr14-sp"] = rsp

	ccc, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	circ, _, err := core.Circular(ccc, core.Options{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs["ccc3-circular"] = circ

	frag := graph.New(6)
	for i := 0; i < 6; i++ {
		frag.MustAddEdge(i, (i+1)%6)
	}
	srcs["fragile"] = newSingleRouteRouting(t, frag)

	c8, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	multi, _, err := core.FullMultirouting(c8, core.Options{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs["c8-multi"] = multi

	// Two K4s joined through one middle node: Reinforce finds a
	// link-disjoint backup for 24 of the 72 pairs, so the engine's live
	// counters run next to pairs with one route.
	bb, err := gen.Barbell(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := routing.ShortestPath(bb)
	if err != nil {
		t.Fatal(err)
	}
	if srcs["barbell4-reinforced"], err = routing.Reinforce(bsp, 1); err != nil {
		t.Fatal(err)
	}

	return srcs
}

// sameResult asserts that got, the report of a node-only search, has
// a nil link part and equals want bit for bit, witness included.
func sameResult(t *testing.T, name string, got, want MixedResult) {
	t.Helper()
	if got.WorstEdgeFaults != nil {
		t.Fatalf("%s: node-only report %v has a link part", name, got)
	}
	sameMixedResult(t, name, got, want)
}

func TestEngineMatchesSurvivingGraphOnRandomFaultSets(t *testing.T) {
	for name, s := range testSources(t) {
		rng := rand.New(rand.NewSource(3))
		rs, ok := s.(RouteSource)
		if !ok {
			t.Fatalf("%s: not a RouteSource", name)
		}
		eng := NewEngine(rs)
		n := s.Graph().N()
		dist := make([]int, n)
		for trial := 0; trial < 40; trial++ {
			faults := drawFaults(rng, n, rng.Intn(n/2+1))
			eng.SetFaults(faults)
			d := s.SurvivingGraph(faults)
			// Arc-level agreement.
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					if u == v {
						continue
					}
					want := d.HasArc(u, v) && !faults.Has(u) && !faults.Has(v)
					if eng.HasArc(u, v) != want {
						t.Fatalf("%s F=%v: arc %d->%d engine=%v legacy=%v",
							name, faults, u, v, eng.HasArc(u, v), want)
					}
				}
			}
			// Diameter agreement (skip the <=1 alive case, where the
			// legacy search never asks for a diameter).
			if eng.AliveCount() > 1 {
				gd, gok := eng.Diameter()
				wd, wok := d.Diameter()
				if gd != wd || gok != wok {
					t.Fatalf("%s F=%v: engine diameter (%d,%v) != legacy (%d,%v)",
						name, faults, gd, gok, wd, wok)
				}
				for bound := -1; bound <= wd+1; bound++ {
					got, above, conn := eng.diameterAbove(bound)
					if conn != wok || (wok && above != (wd > bound)) || (above && got != wd) {
						t.Fatalf("%s F=%v: diameterAbove(%d) = (%d,%v,%v), legacy diameter (%d,%v)",
							name, faults, bound, got, above, conn, wd, wok)
					}
				}
			}
			// Distance agreement from every source.
			for u := 0; u < n; u++ {
				eng.DistancesFrom(u, dist)
				ref := d.BFSDistances(u)
				for v := 0; v < n; v++ {
					if dist[v] != ref[v] {
						t.Fatalf("%s F=%v: dist(%d,%d) engine=%d legacy=%d",
							name, faults, u, v, dist[v], ref[v])
					}
				}
			}
		}
	}
}

func TestEngineIncrementalMatchesRebuild(t *testing.T) {
	// Random add/remove walk: after every single toggle the engine must
	// agree with a from-scratch rebuild.
	for name, s := range testSources(t) {
		rng := rand.New(rand.NewSource(17))
		eng := NewEngine(s.(RouteSource))
		n := s.Graph().N()
		faults := graph.NewBitset(n)
		for step := 0; step < 120; step++ {
			v := rng.Intn(n)
			if faults.Has(v) {
				faults.Remove(v)
				eng.RemoveFault(v)
			} else {
				faults.Add(v)
				eng.AddFault(v)
			}
			if eng.AliveCount() != n-faults.Count() {
				t.Fatalf("%s: alive %d != %d", name, eng.AliveCount(), n-faults.Count())
			}
			if eng.AliveCount() <= 1 {
				continue
			}
			d := s.SurvivingGraph(faults)
			gd, gok := eng.Diameter()
			wd, wok := d.Diameter()
			if gd != wd || gok != wok {
				t.Fatalf("%s step %d F=%v: engine (%d,%v) != legacy (%d,%v)",
					name, step, faults, gd, gok, wd, wok)
			}
		}
	}
}

// TestEngineCountersMatchRecount pins the two counters a toggle adds
// its deltas to once: after every toggle of a seeded walk over nodes
// and links, DeadRouteCount must equal the routes holding a faulty
// item, recounted from EachRoute, and alivePairs the arcs set in adj.
func TestEngineCountersMatchRecount(t *testing.T) {
	for name, s := range testSources(t) {
		rng := rand.New(rand.NewSource(29))
		eng := NewEngine(s)
		n := s.Graph().N()
		edges := s.Graph().Edges()
		nodes := graph.NewBitset(n)
		cut := make(map[[2]int]bool)
		for step := 0; step < 200; step++ {
			if k := rng.Intn(n + len(edges)); k < n {
				if nodes.Has(k) {
					nodes.Remove(k)
					eng.RemoveFault(k)
				} else {
					nodes.Add(k)
					eng.AddFault(k)
				}
			} else if e := edges[k-n]; cut[e] {
				delete(cut, e)
				eng.RemoveEdgeFault(e[1], e[0])
			} else {
				cut[e] = true
				eng.AddEdgeFault(e[0], e[1])
			}
			dead := 0
			s.EachRoute(func(u, v int, p routing.Path) {
				for i, w := range p {
					if nodes.Has(w) || i > 0 && cut[[2]int{min(w, p[i-1]), max(w, p[i-1])}] {
						dead++
						return
					}
				}
			})
			arcs := 0
			for _, w := range eng.adj {
				arcs += bits.OnesCount64(w)
			}
			if eng.DeadRouteCount() != dead || eng.alivePairs != arcs {
				t.Fatalf("%s step %d F=%v E=%v: DeadRouteCount %d, alivePairs %d; recounted %d dead routes, %d arcs",
					name, step, nodes, eng.EdgeFaults(), eng.DeadRouteCount(), eng.alivePairs, dead, arcs)
			}
		}
	}
}

func TestEngineExhaustiveEquivalence(t *testing.T) {
	for name, s := range testSources(t) {
		for f := 0; f <= 2; f++ {
			got := MaxDiameter(s, f, Config{Mode: Exhaustive})
			want := fromOracle(oracle.MaxDiameter(s, f, oc(Config{Mode: Exhaustive})))
			sameResult(t, name, got, want)
		}
	}
}

func TestEngineSampledGreedyEquivalence(t *testing.T) {
	for name, s := range testSources(t) {
		for _, cfg := range []Config{
			{Mode: Sampled, Samples: 40, Seed: 5},
			{Mode: Sampled, Samples: 40, Seed: 5, Greedy: true},
			{Mode: Sampled, Samples: 1, Seed: 9, Greedy: true},
		} {
			got := MaxDiameter(s, 2, cfg)
			want := fromOracle(oracle.MaxDiameter(s, 2, oc(cfg)))
			sameResult(t, name, got, want)
		}
	}
}

func TestEngineParallelExhaustiveEquivalence(t *testing.T) {
	for name, s := range testSources(t) {
		want := MaxDiameter(s, 2, Config{Mode: Exhaustive})
		for _, workers := range []int{2, 3, 8} {
			got := MaxDiameterParallel(s, 2, Config{Mode: Exhaustive}, workers)
			sameResult(t, name, got, want)
		}
	}
}

func TestEngineParallelSampledGreedyEquivalence(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: Sampled, Samples: 30, Seed: 12, Greedy: true},
		// One sample with many workers: the sampling fan-out clamps to
		// 1 but the greedy phase must still use all workers.
		{Mode: Sampled, Samples: 1, Seed: 12, Greedy: true},
	} {
		for name, s := range testSources(t) {
			want := MaxDiameter(s, 2, cfg)
			for _, workers := range []int{2, 4} {
				got := MaxDiameterParallel(s, 2, cfg, workers)
				sameResult(t, name, got, want)
			}
		}
	}
}

func TestNegativeFaultBudget(t *testing.T) {
	// f < 0 must mean "empty set only" on every path (the serial legacy
	// recursion used to enumerate all 2^n subsets on a negative budget).
	r := cycleRouting(t, 6)
	for _, res := range []MixedResult{
		MaxDiameter(r, -1, Config{Mode: Exhaustive}),
		MaxDiameter(r, -1, Config{Mode: Sampled, Samples: 2, Seed: 1}),
		MaxDiameterParallel(r, -1, Config{Mode: Exhaustive}, 4),
		fromOracle(oracle.MaxDiameter(r, -1, oc(Config{Mode: Exhaustive}))),
		fromOracle(oracle.MaxDiameter(r, -1, oc(Config{Mode: Sampled, Samples: 2, Seed: 1}))),
	} {
		if res.Disconnected || res.MaxDiameter != 3 {
			t.Fatalf("f=-1 result = %+v", res)
		}
	}
}

func TestEngineConcentratorEquivalence(t *testing.T) {
	for name, s := range testSources(t) {
		n := s.Graph().N()
		targets := []int{0, n / 3, n / 2, n - 1}
		got := ConcentratorAdversary(s, 2, targets)
		want := fromOracle(oracle.ConcentratorAdversary(s, 2, targets))
		sameResult(t, name, got, want)
	}
}

// TestOneReportPerObjective pins the empty witness parts of the two
// reports against the oracle: every node-only diameter search reports
// a nil link part (sameResult checks it), as a mixed search whose
// witness has no links does, and every link-only walk search reports
// its node part as []int{}, as a mixed walk search whose witness has no
// nodes does.
func TestOneReportPerObjective(t *testing.T) {
	cfgs := []Config{
		{Mode: Exhaustive},
		{Mode: Sampled, Samples: 20, Seed: 4, Greedy: true},
	}
	for name, s := range testSources(t) {
		n := s.Graph().N()
		for _, cfg := range cfgs {
			want := fromOracle(oracle.MaxDiameter(s, 2, oc(cfg)))
			sameResult(t, fmt.Sprintf("%s %+v serial", name, cfg), MaxDiameter(s, 2, cfg), want)
			sameResult(t, fmt.Sprintf("%s %+v w=3", name, cfg), MaxDiameterParallel(s, 2, cfg, 3), want)
		}
		targets := []int{0, n / 2, n - 1}
		sameResult(t, name+" concentrator", ConcentratorAdversary(s, 2, targets),
			fromOracle(oracle.ConcentratorAdversary(s, 2, targets)))
	}
	for _, it := range walkEngineInstances(t) {
		for _, cfg := range cfgs {
			want := fromOracleCuts(oracle.WorstLinkCuts(it.ft, it.g, 2, oc(cfg)))
			for _, got := range []MixedCutResult{WorstLinkCuts(it.ft, it.g, 2, cfg), WorstLinkCutsParallel(it.ft, it.g, 2, cfg, 3)} {
				if got.WorstNodes == nil || len(got.WorstNodes) != 0 {
					t.Fatalf("%s %+v: link-only report %v has node part %#v, want []int{}", it.name, cfg, got, got.WorstNodes)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %+v: engine %v, oracle %v", it.name, cfg, got, want)
				}
			}
		}
	}
}

func TestEngineProfileEquivalence(t *testing.T) {
	for name, s := range testSources(t) {
		for _, cfg := range []Config{
			{Mode: Exhaustive},
			{Mode: Sampled, Samples: 25, Seed: 3},
		} {
			got := Profile(s, 2, cfg)
			want := oracle.Profile(s, 2, oc(cfg))
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: profile %v != legacy %v", name, got, want)
				}
			}
		}
	}
}

func TestEngineCheckToleranceAgreesWithLegacy(t *testing.T) {
	for name, s := range testSources(t) {
		for d := 1; d <= 6; d++ {
			for f := 0; f <= 2; f++ {
				got := CheckTolerance(s, d, f, Config{Mode: Exhaustive})
				want := oracle.CheckTolerance(s, d, f, oc(Config{Mode: Exhaustive}))
				if (got == nil) != (want == nil) {
					t.Fatalf("%s (d=%d,f=%d): engine err=%v legacy err=%v", name, d, f, got, want)
				}
			}
		}
	}
}

func TestEngineBeyondToleranceEquivalence(t *testing.T) {
	for name, s := range testSources(t) {
		for f := 1; f <= 2; f++ {
			got := BeyondTolerance(s, f)
			want := fromOracleBeyond(oracle.BeyondTolerance(s, f))
			if got.Evaluated != want.Evaluated || got.GraphConnected != want.GraphConnected ||
				got.Shattered != want.Shattered ||
				got.WorstComponentDiameter != want.WorstComponentDiameter ||
				got.WorstFaults.String() != want.WorstFaults.String() {
				t.Fatalf("%s f=%d: engine %+v != legacy %+v", name, f, got, want)
			}
		}
	}
}

func TestEngineDisconnectionWitnessSemantics(t *testing.T) {
	// C6 edge routing, f=2: the engine must report the same first
	// disconnecting fault set as the legacy enumeration, and freeze the
	// pre-disconnection diameter.
	r := cycleRouting(t, 6)
	got := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	want := fromOracle(oracle.MaxDiameter(r, 2, oc(Config{Mode: Exhaustive})))
	if !got.Disconnected {
		t.Fatal("two faults disconnect C6")
	}
	sameResult(t, "c6", got, want)
}

func TestSampledClampsOversizedFaultBudget(t *testing.T) {
	// f > n used to loop forever in sampled(); it must now clamp to n
	// and terminate on both the engine and the legacy path.
	r := cycleRouting(t, 5)
	cfg := Config{Mode: Sampled, Samples: 3, Seed: 1}
	for _, evaluated := range []int{
		MaxDiameter(r, 99, cfg).Evaluated,
		oracle.MaxDiameter(r, 99, oc(cfg)).Evaluated,
	} {
		if evaluated != 4 { // empty + 3 samples
			t.Fatalf("evaluated = %d, want 4", evaluated)
		}
	}
}

func TestEngineCloneIsIndependent(t *testing.T) {
	r := cycleRouting(t, 10)
	eng := NewEngine(r)
	eng.AddFault(0)
	c := eng.Clone()
	if !c.HasFault(0) || c.AliveCount() != 9 {
		t.Fatalf("clone did not inherit fault state")
	}
	c.AddFault(5)
	if eng.HasFault(5) {
		t.Fatal("clone mutation leaked into parent")
	}
	eng.RemoveFault(0)
	if !c.HasFault(0) {
		t.Fatal("parent mutation leaked into clone")
	}
	// Both still compute correct diameters after divergence.
	d1, ok1 := eng.Diameter()
	if !ok1 || d1 != 5 { // fault-free C10
		t.Fatalf("parent diameter = (%d,%v)", d1, ok1)
	}
	ref := r.SurvivingGraph(graph.BitsetOf(10, 0, 5))
	wd, wok := ref.Diameter()
	gd, gok := c.Diameter()
	if gd != wd || gok != wok {
		t.Fatalf("clone diameter (%d,%v) != legacy (%d,%v)", gd, gok, wd, wok)
	}
}

func TestEngineResetAndSetFaults(t *testing.T) {
	r := cycleRouting(t, 9)
	eng := NewEngine(r)
	eng.SetFaults(graph.BitsetOf(9, 1, 4, 7))
	if eng.AliveCount() != 6 {
		t.Fatalf("alive = %d", eng.AliveCount())
	}
	eng.SetFaults(graph.BitsetOf(9, 4))
	if eng.AliveCount() != 8 || eng.HasFault(1) || !eng.HasFault(4) {
		t.Fatalf("symmetric-difference update wrong: F=%v", eng.Faults())
	}
	eng.Reset()
	if eng.AliveCount() != 9 {
		t.Fatalf("reset left faults: %v", eng.Faults())
	}
	d, ok := eng.Diameter()
	if !ok || d != 4 {
		t.Fatalf("post-reset diameter (%d,%v), want (4,true)", d, ok)
	}
}
