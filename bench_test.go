package ftroute

// Benchmark harness: one benchmark for each of experiments E1..E13 (of
// internal/experiments' E1..E21, the empirical tables standing in for
// the theory paper's theorems, figures and remarks), plus
// micro-benchmarks of the library's hot operations. Regenerate the full
// tables with:
//
//	go run ./cmd/experiments
//
// The experiment benchmarks run the Quick configurations so that
// `go test -bench=.` terminates in reasonable time; cmd/experiments
// runs the Full configurations.

import (
	"testing"

	"ftroute/internal/eval"
	"ftroute/internal/eval/oracle"
	"ftroute/internal/experiments"
	"ftroute/internal/graph"
	routingoracle "ftroute/internal/routing/oracle"
)

// benchExperiment runs one experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE01Kernel2t regenerates E1 (Theorem 3: kernel (2t,t)).
func BenchmarkE01Kernel2t(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE02KernelHalf regenerates E2 (Theorem 4: kernel (4,⌊t/2⌋)).
func BenchmarkE02KernelHalf(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE03Circular regenerates E3 (Theorem 10 / Figure 1).
func BenchmarkE03Circular(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE04TriCircular regenerates E4 (Theorem 13 / Figure 2).
func BenchmarkE04TriCircular(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE05SmallTriCirc regenerates E5 (Remark 14).
func BenchmarkE05SmallTriCirc(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE06Neighborhood regenerates E6 (Lemma 15).
func BenchmarkE06Neighborhood(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE07Thresholds regenerates E7 (Theorem 16 / Corollary 17).
func BenchmarkE07Thresholds(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE08BipolarUni regenerates E8 (Theorem 20 / Figure 3).
func BenchmarkE08BipolarUni(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE09BipolarBi regenerates E9 (Theorem 23).
func BenchmarkE09BipolarBi(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10TwoTreesGnp regenerates E10 (Lemma 24 / Theorem 25).
func BenchmarkE10TwoTreesGnp(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Multirouting regenerates E11 (Section 6, multiroutings).
func BenchmarkE11Multirouting(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Augment regenerates E12 (Section 6, network modification).
func BenchmarkE12Augment(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Baseline regenerates E13 (shortest-path comparison).
func BenchmarkE13Baseline(b *testing.B) { benchExperiment(b, "E13") }

// --- Micro-benchmarks of the library's hot paths ---

func BenchmarkVertexConnectivityCCC4(b *testing.B) {
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := VertexConnectivity(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVertexConnectivityCCC7 times κ(G) alone on the 896-node
// anchor of tolerate-ccc7: 895 capped probe flows in one block per
// worker, then the separator's uncapped flow. Run it at -cpu 1,2 to see
// what the second worker buys; report-only, not gated.
func BenchmarkVertexConnectivityCCC7(b *testing.B) {
	g, err := CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := VertexConnectivity(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelConstructionQ5(b *testing.B) {
	g, err := Hypercube(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Kernel(g, Options{Tolerance: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircularConstructionC24(b *testing.B) {
	g, err := Cycle(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Circular(g, Options{Tolerance: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriCircularConstructionC45(b *testing.B) {
	g, err := Cycle(45)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TriCircular(g, Options{Tolerance: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipolarConstructionC16(b *testing.B) {
	g, err := Cycle(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BipolarUnidirectional(g, Options{Tolerance: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurvivingGraphCCC4(b *testing.B) {
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		b.Fatal(err)
	}
	faults := FaultsOf(g.N(), 3, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.SurvivingGraph(faults)
		if d.Arcs() == 0 {
			b.Fatal("no arcs")
		}
	}
}

func BenchmarkSurvivingDiameterCCC4(b *testing.B) {
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		b.Fatal(err)
	}
	d := r.SurvivingGraph(FaultsOf(g.N(), 3, 40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Diameter(); !ok {
			b.Fatal("disconnected")
		}
	}
}

func BenchmarkShortestPathRoutingQ5(b *testing.B) {
	g, err := Hypercube(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ShortestPathRouting(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborhoodSetRR400(b *testing.B) {
	g, _, err := RandomRegularConnected(400, 3, 5, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := NeighborhoodSet(g); len(m) == 0 {
			b.Fatal("empty set")
		}
	}
}

func BenchmarkTwoTreesDetectionRR200(b *testing.B) {
	g, _, err := RandomRegularConnected(200, 3, 7, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HasTwoTrees(g)
	}
}

// --- Evaluation-engine benchmarks (see internal/eval.Engine) ---
//
// The CCC(4) circular routing (64 nodes, t=2) is the mid-size anchor
// instance: exhaustive f=2 evaluates 1 + 64 + C(64,2) = 2081 fault
// sets. Engine* benchmarks exercise the incremental path; the *Legacy*
// twins run the rebuild-per-set reference in internal/eval/oracle.
// BENCH_eval.json records the checked-in baseline numbers.

// ccc4Circular builds the anchor instance.
func ccc4Circular(b *testing.B) *Routing {
	b.Helper()
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkEngineCompileCCC4 measures the one-time compilation cost
// (CSR inverted index + adjacency bitrows) that every search amortizes.
func BenchmarkEngineCompileCCC4(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng := NewEvalEngine(r); eng.AliveCount() != 64 {
			b.Fatal("bad engine")
		}
	}
}

// BenchmarkEngineFaultToggleCCC4 measures one incremental fault
// add+remove pair — the per-step cost of walking the enumeration tree,
// touching only the routes through the toggled node.
func BenchmarkEngineFaultToggleCCC4(b *testing.B) {
	eng := NewEvalEngine(ccc4Circular(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % 64
		eng.AddFault(v)
		eng.RemoveFault(v)
	}
}

// BenchmarkEngineFaultToggleMultiCCC4 is BenchmarkEngineFaultToggleCCC4
// on the anchor reinforced with 2 link-disjoint backups per pair, where
// most pairs have several routes, so a route's death or revival goes
// through its pair's live counter.
func BenchmarkEngineFaultToggleMultiCCC4(b *testing.B) {
	m, err := Reinforce(ccc4Circular(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEvalEngine(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % 64
		eng.AddFault(v)
		eng.RemoveFault(v)
	}
}

// BenchmarkEngineDiameterCCC4 measures one word-parallel diameter over
// the live bitrows; compare BenchmarkSurvivingDiameterCCC4, the
// allocating per-node BFS on a materialized Digraph.
func BenchmarkEngineDiameterCCC4(b *testing.B) {
	eng := NewEvalEngine(ccc4Circular(b))
	eng.SetFaults(FaultsOf(64, 3, 40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Diameter(); !ok {
			b.Fatal("disconnected")
		}
	}
}

// BenchmarkExhaustiveEngineCCC4F2 is the headline: exhaustive f=2
// evaluation of the anchor instance through the incremental engine.
func BenchmarkExhaustiveEngineCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveLegacyCCC4F2 is the same search forced through the
// rebuild-per-fault-set SurvivingGraph+Diameter path.
func BenchmarkExhaustiveLegacyCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oracle.MaxDiameter(r, 2, oracle.Config{Mode: oracle.Exhaustive})
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveEngineParallelCCC4F2 adds work-stealing engine
// clones on top of the incremental path.
func BenchmarkExhaustiveEngineParallelCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterParallel(r, 2, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkEngineEdgeToggleCCC4 measures one incremental edge-fault
// add+remove pair — the per-step cost of the mixed enumeration tree,
// touching only the routes over the toggled link.
func BenchmarkEngineEdgeToggleCCC4(b *testing.B) {
	r := ccc4Circular(b)
	edges := r.Graph().Edges()
	eng := NewEvalEngine(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		eng.AddEdgeFault(e[0], e[1])
		eng.RemoveEdgeFault(e[0], e[1])
	}
}

// BenchmarkExhaustiveMixedEngineCCC4F2 is the edge-fault headline:
// exhaustive mixed f=2 on the anchor instance. The universe is 64 nodes
// + 96 edges, so 1 + 160 + C(160,2) = 12881 mixed fault sets.
func BenchmarkExhaustiveMixedEngineCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterMixed(r, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveMixedLegacyCCC4F2 is the same mixed search forced
// through the rebuild-per-set SurvivingGraphMixed+Diameter path.
func BenchmarkExhaustiveMixedLegacyCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oracle.MaxDiameterMixed(r, 2, oracle.Config{Mode: oracle.Exhaustive})
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveMixedEngineParallelCCC4F2 adds work-stealing
// engine clones over the n+m item universe.
func BenchmarkExhaustiveMixedEngineParallelCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterMixedParallel(r, 2, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkProfileMixedCCC4F2 is ProfileMixed exhaustive at f=2 on the
// anchor instance: the same 12881 mixed sets as
// BenchmarkExhaustiveMixedEngineCCC4F2, walked one exact size at a time,
// each size on GOMAXPROCS workers (CI-gated against that serial search).
func BenchmarkProfileMixedCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := eval.ProfileMixed(r, 2, eval.Config{Mode: eval.Exhaustive}); len(p) != 3 || p[2] < 0 {
			b.Fatalf("profile %v", p)
		}
	}
}

// --- Static-failover benchmarks (see internal/routing failover) ---
//
// The anchor instance again: CCC(4) circular reinforced with 2 backup
// routes per pair and compiled to ranked failover tables. Walks are
// packet-level, so these benchmarks bound the cost of the link-cut
// adversary (every probed cut set walks every routed pair).

// ccc4Failover compiles the anchor routing to reinforced tables.
func ccc4Failover(b *testing.B) *FailoverTables {
	b.Helper()
	m, err := Reinforce(ccc4Circular(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	return CompileFailover(m)
}

// BenchmarkCompileFailoverCCC4 measures the one-time table compilation
// (reinforcement included) that every adversary search amortizes.
func BenchmarkCompileFailoverCCC4(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Reinforce(r, 2)
		if err != nil {
			b.Fatal(err)
		}
		if t := CompileFailover(m); t.Entries() == 0 {
			b.Fatal("empty tables")
		}
	}
}

// BenchmarkReinforceCCC4 measures Reinforce(r, 2) of the anchor routing:
// per-worker BFS scratch and link stamps, the pairs in blocks on
// GOMAXPROCS workers, installed in sorted order. CI runs it at -cpu 1
// and gates it against BenchmarkReinforceOracleCCC4, so the ratio
// measures the search, not the core count.
func BenchmarkReinforceCCC4(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, err := Reinforce(r, 2); err != nil || m.Pairs() == 0 {
			b.Fatal("Reinforce:", err)
		}
	}
}

// BenchmarkReinforceOracleCCC4 is the same reinforcement through the
// reference of internal/routing/oracle: a map of used links and a fresh
// BFS per backup, one pair at a time.
func BenchmarkReinforceOracleCCC4(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, err := routingoracle.Reinforce(r, 2); err != nil || m.Pairs() == 0 {
			b.Fatal("oracle.Reinforce:", err)
		}
	}
}

// BenchmarkFailoverTablesCCC4 measures the table layer alone:
// CompileFailover of the reinforced anchor, with Reinforce's BFS (which
// dominates BenchmarkCompileFailoverCCC4) outside the timed loop.
func BenchmarkFailoverTablesCCC4(b *testing.B) {
	m, err := Reinforce(ccc4Circular(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t := CompileFailover(m); t.Entries() == 0 {
			b.Fatal("empty tables")
		}
	}
}

// BenchmarkWalkUnderFaultsCCC4 measures one hop-by-hop failover walk
// under a mixed fault set, rotating over every routed pair.
func BenchmarkWalkUnderFaultsCCC4(b *testing.B) {
	t := ccc4Failover(b)
	edges := ccc4Circular(b).Graph().Edges()
	e1, e2 := edges[0], edges[len(edges)/2]
	faults := FaultSetOf(t.N(), []int{5}, []EdgeFault{
		{U: e1[0], V: e1[1]}, {U: e2[0], V: e2[1]},
	})
	pairs := t.Pairs()
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		hops += t.WalkUnderFaults(int(p[0]), int(p[1]), faults).Hops
	}
	if hops < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWalkEngineCompileCCC4 measures the one-time WalkEngine
// compilation (hop links, source entries, the item→candidate pairs
// index and the initial all-pairs walk) that every adversary search
// amortizes.
func BenchmarkWalkEngineCompileCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		we := NewWalkEngine(t, g)
		if we.Stats().Delivered != we.PairCount() {
			b.Fatal("cut-free walks must all deliver")
		}
	}
}

// BenchmarkWalkEngineCutToggleCCC4 measures one incremental
// AddLinkCut+RemoveLinkCut pair — the per-step cost of the exhaustive
// enumeration tree, re-walking only the pairs whose walk crossed the
// toggled link, from the step that crossed it.
func BenchmarkWalkEngineCutToggleCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	edges := g.Edges()
	we := NewWalkEngine(t, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		we.AddLinkCut(e[0], e[1])
		we.RemoveLinkCut(e[0], e[1])
	}
}

// BenchmarkWalkEngineNodeToggleCCC4 is the node twin of
// BenchmarkWalkEngineCutToggleCCC4: one AddNodeFault+RemoveNodeFault
// pair, cycling over the 64 nodes, re-walking the pairs whose cached
// walk enters the node plus its endpoint pairs.
func BenchmarkWalkEngineNodeToggleCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	we := NewWalkEngine(t, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % g.N()
		we.AddNodeFault(v)
		we.RemoveNodeFault(v)
	}
}

// BenchmarkWorstLinkCutsEngineCCC4 is the walk-engine headline: the
// exhaustive budget-1 link-cut adversary (1 + 96 cut sets) through the
// incremental WalkEngine. CI gates its ns/op ratio against the legacy
// twin below.
func BenchmarkWorstLinkCutsEngineCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCuts(t, g, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 97 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsLegacyCCC4 is the same budget-1 search through
// the legacy path that re-walks all 4032 pairs per cut set.
func BenchmarkWorstLinkCutsLegacyCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oracle.WorstLinkCuts(t, g, 1, oracle.Config{Mode: oracle.Exhaustive})
		if res.Evaluated != 97 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsEngineParallelCCC4 adds work-stealing engine
// clones over first-link enumeration prefixes, at budget 2 so each
// stolen unit amortizes its clone (budget 1 has one set per unit).
func BenchmarkWorstLinkCutsEngineParallelCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCutsParallel(t, g, 2, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 4657 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstMixedFaultsEngineCCC4 is the mixed-universe packet
// adversary headline: the exhaustive budget-1 search over all 64 nodes
// and 96 links (1 + 160 fault sets) through the incremental WalkEngine
// with node-fault invalidation. CI gates its ns/op ratio against the
// legacy twin below.
func BenchmarkWorstMixedFaultsEngineCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstMixedFaults(t, g, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 161 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstMixedFaultsLegacyCCC4 is the same budget-1 mixed search
// through the legacy path that re-walks all 4032 pairs per fault set.
func BenchmarkWorstMixedFaultsLegacyCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oracle.WorstMixedFaults(t, g, 1, oracle.Config{Mode: oracle.Exhaustive})
		if res.Evaluated != 161 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsSampledCCC4F2 is the sampled+greedy+concentrator
// adversary at budget 2 — the scale the failover CLI subcommand runs —
// now engine-backed.
func BenchmarkWorstLinkCutsSampledCCC4F2(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCuts(t, g, 2, eval.Config{Mode: eval.Sampled, Samples: 20, Greedy: true, Seed: 1})
		if res.Evaluated == 0 {
			b.Fatal("no sets evaluated")
		}
	}
}

// BenchmarkWorstMixedFaultsSampledCCC4F2 is failover-ccc6's adversary
// in miniature: the sampled+concentrator+greedy search over mixed
// node+link sets at budget 2 (20 samples, seed 1) through the
// WalkEngine, whose greedy rounds score each candidate with probe. CI
// gates its ns/op ratio against the oracle twin below.
func BenchmarkWorstMixedFaultsSampledCCC4F2(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstMixedFaults(t, g, 2, eval.Config{Mode: eval.Sampled, Samples: 20, Greedy: true, Seed: 1})
		if res.Evaluated != sampledMixedSetsCCC4F2 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstMixedFaultsSampledOracleCCC4F2 is the same search
// through oracle.WorstMixedFaults, which re-walks all 4032 pairs per
// fault set and per greedy candidate.
func BenchmarkWorstMixedFaultsSampledOracleCCC4F2(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := oracle.WorstMixedFaults(t, g, 2, oracle.Config{Mode: oracle.Sampled, Samples: 20, Greedy: true, Seed: 1})
		if res.Evaluated != sampledMixedSetsCCC4F2 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// sampledMixedSetsCCC4F2 counts the sets the budget-2 sampled mixed
// search evaluates on the anchor: the empty set, 20 samples, the 10
// nonempty subsets of at most two of the concentrator node and its 3
// links, and greedy rounds over 160 and then 159 items.
const sampledMixedSetsCCC4F2 = 1 + 20 + 10 + 160 + 159

// BenchmarkE14EdgeFaults regenerates E14 (edge-fault extension).
func BenchmarkE14EdgeFaults(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE18MixedEngine regenerates E18 (engine-backed mixed search).
func BenchmarkE18MixedEngine(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE15NetsimDelivery regenerates E15 (simulated delivery).
func BenchmarkE15NetsimDelivery(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Ablation regenerates E16 (construction cost ablation).
func BenchmarkE16Ablation(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17BeyondTolerance regenerates E17 (Open Problem 3 probe).
func BenchmarkE17BeyondTolerance(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE19Failover regenerates E19 (static-failover adversaries).
func BenchmarkE19Failover(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20Symmetry regenerates E20 (automorphism orbits).
func BenchmarkE20Symmetry(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21Bounded regenerates E21 (branch-and-bound search).
func BenchmarkE21Bounded(b *testing.B) { benchExperiment(b, "E21") }

// --- Thousand-node anchors (branch-and-bound search, docs/perf.md) ---
//
// The large anchors scale the exhaustive adversary past the 64-node
// CCC(4) instance: CCC(7) has 896 nodes and Q10 has 1024, so a single
// f=1 sweep runs ~900 incremental fault sets over ~13k-arc route
// graphs. The searches must stay bit-identical to the rebuild-per-set
// oracle (pinned by internal/eval's differential tests); CI gates
// their ns ratio against the full-diameter sweep so the
// branch-and-bound speedup cannot silently rot. Run these with
// -benchtime 1x: one iteration is a full exhaustive sweep.

// ccc7Circular builds the 896-node anchor instance.
func ccc7Circular(b *testing.B) *Routing {
	b.Helper()
	g, err := CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 1})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// q10Circular builds the 1024-node anchor instance.
func q10Circular(b *testing.B) *Routing {
	b.Helper()
	g, err := Hypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 1})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkExhaustiveEngineCCC7F1 is the full-diameter baseline on the
// 896-node anchor: the same 897 fault sets as the search below (the
// empty set and every single node), each scored with the unpruned
// Engine.Diameter, one BFS per alive source.
func BenchmarkExhaustiveEngineCCC7F1(b *testing.B) {
	r := ccc7Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := eval.NewEngine(r)
		sets := 1
		e.Diameter()
		for v := 0; v < e.N(); v++ {
			e.AddFault(v)
			if _, ok := e.Diameter(); !ok {
				b.Fatalf("F={%d} disconnects", v)
			}
			e.RemoveFault(v)
			sets++
		}
		if sets != 897 {
			b.Fatalf("evaluated %d", sets)
		}
	}
}

// BenchmarkExhaustiveBoundedCCC7F1 is the exhaustive search on the
// same instance, which scores every set with the branch-and-bound
// kernel: multi-pivot diameterAbove against the incumbent.
func BenchmarkExhaustiveBoundedCCC7F1(b *testing.B) {
	r := ccc7Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 897 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveBoundedParallelCCC7F1 adds work-stealing engine
// clones sharing the branch-and-bound incumbent atomically. CI gates
// this against BenchmarkExhaustiveEngineCCC7F1.
func BenchmarkExhaustiveBoundedParallelCCC7F1(b *testing.B) {
	r := ccc7Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterParallel(r, 1, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 897 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveBoundedCCC7T2F1 is the bounded search on CCC(7)'s
// circular routing built with Options{}, so t = κ−1 = 2: the routing
// of bench/'s tolerate-ccc7 workload. All 897 sets score the hubs'
// eccentricity 2, where each pivot's ball is the pivot alone and the
// shared covers of the hub pivots skip most sources. Report-only.
func BenchmarkExhaustiveBoundedCCC7T2F1(b *testing.B) {
	g, err := CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 897 || res.MaxDiameter != 2 {
			b.Fatalf("evaluated %d, diameter %d", res.Evaluated, res.MaxDiameter)
		}
	}
}

// BenchmarkExhaustiveBoundedQ10F1 is the exhaustive search on the
// 1024-node hypercube anchor.
func BenchmarkExhaustiveBoundedQ10F1(b *testing.B) {
	r := q10Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 1025 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// edgeSource adapts a bare graph to eval.RouteSource with one
// single-edge route per arc, so R(G,ρ)/F is G−F itself. It is how the
// BFS/diameter kernels are exercised at node counts where a full n²
// routing would not fit in memory (RandomRegularConnected(5000,3) has
// 25M ordered pairs).
type edgeSource struct{ g *Graph }

func (s edgeSource) Graph() *Graph { return s.g }

func (s edgeSource) SurvivingGraph(f *graph.Bitset) *graph.Digraph {
	d := graph.NewDigraph(s.g.N())
	for v := 0; v < s.g.N(); v++ {
		if f.Has(v) {
			d.Disable(v)
		}
	}
	for _, e := range s.g.Edges() {
		if f.Has(e[0]) || f.Has(e[1]) {
			continue
		}
		d.AddArc(e[0], e[1])
		d.AddArc(e[1], e[0])
	}
	return d
}

func (s edgeSource) EachRoute(fn func(u, v int, p Path)) {
	for _, e := range s.g.Edges() {
		fn(e[0], e[1], Path{e[0], e[1]})
		fn(e[1], e[0], Path{e[1], e[0]})
	}
}

// rr5000Engine compiles the 5000-node sparse anchor.
func rr5000Engine(b *testing.B) *eval.Engine {
	b.Helper()
	g, _, err := RandomRegularConnected(5000, 3, 11, 50)
	if err != nil {
		b.Fatal(err)
	}
	return eval.NewEngine(edgeSource{g: g})
}

// BenchmarkEngineCompileRR5000 measures compiling the 5000-node
// adapter (15k routes) into bitrows and CSR indexes.
func BenchmarkEngineCompileRR5000(b *testing.B) {
	g, _, err := RandomRegularConnected(5000, 3, 11, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng := eval.NewEngine(edgeSource{g: g}); eng.AliveCount() != 5000 {
			b.Fatal("bad engine")
		}
	}
}

// BenchmarkEngineDiameterRR5000 is the serial word-parallel diameter
// on the 5000-node sparse graph: 5000 BFS over 79-word bitrows.
func BenchmarkEngineDiameterRR5000(b *testing.B) {
	eng := rr5000Engine(b)
	eng.SetFaults(FaultsOf(5000, 3, 40, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Diameter(); !ok {
			b.Fatal("disconnected")
		}
	}
}
