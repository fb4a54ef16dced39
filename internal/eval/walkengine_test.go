package eval

import (
	"fmt"
	"ftroute/internal/eval/oracle"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// walkEngineInstances are the small instances the engine/legacy
// equivalence tests sweep: varied connectivity, routed-pair coverage
// (shortest routes every pair, kernel only a subset) and table ranks.
func walkEngineInstances(t *testing.T) []struct {
	name string
	g    *graph.Graph
	ft   *routing.FailoverTables
} {
	t.Helper()
	type instance = struct {
		name string
		g    *graph.Graph
		ft   *routing.FailoverTables
	}
	var out []instance
	add := func(name string, g *graph.Graph, backups int) {
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		if backups == 0 {
			out = append(out, instance{name, g, routing.FailoverFromRouting(r)})
			return
		}
		m, err := routing.Reinforce(r, backups)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, instance{name, g, routing.CompileFailover(m)})
	}
	c9, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	add("C9 rank-1", c9, 0)
	add("Q3 reinforced", q3, 2)
	add("Petersen reinforced", gen.Petersen(), 1)
	return out
}

// legacyOutcomes walks every pair of ft under cuts through the
// reference WalkUnderFaults path and returns the per-pair outcomes in
// Pairs() order plus their counts.
func legacyOutcomes(ft *routing.FailoverTables, cuts []routing.EdgeFault) ([]routing.Outcome, CutStats) {
	faults := routing.FaultSetOf(ft.N(), nil, cuts)
	outs := make([]routing.Outcome, len(ft.Pairs()))
	var s CutStats
	for i, p := range ft.Pairs() {
		o := ft.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome
		outs[i] = o
		s.Pairs++
		switch o {
		case routing.Delivered:
			s.Delivered++
		case routing.Blackhole:
			s.Blackhole++
		default:
			s.Loop++
		}
	}
	return outs, s
}

// checkEngineState asserts the engine's cached per-pair outcomes and
// running stats match a fresh legacy re-walk under the same cuts.
func checkEngineState(t *testing.T, name string, we *WalkEngine, ft *routing.FailoverTables, cuts []routing.EdgeFault) {
	t.Helper()
	wantOuts, wantStats := legacyOutcomes(ft, cuts)
	if got := we.Stats(); got != wantStats {
		t.Fatalf("%s under %v: engine stats %v, legacy %v", name, cuts, got, wantStats)
	}
	for i := range wantOuts {
		if got := we.Outcome(i); got != wantOuts[i] {
			src, dst := we.Pair(i)
			t.Fatalf("%s under %v: pair (%d,%d) engine %v, legacy %v", name, cuts, src, dst, got, wantOuts[i])
		}
	}
	checkWalks(t, name, we, ft, routing.FaultSetOf(ft.N(), nil, cuts))
}

// checkWalks asserts that each pair's walk record agrees with the
// reference walk and with the candidate index. The items of the
// record's taken hops (for each, the link item when the hop is a graph
// edge, then the node entered) must equal the items of
// WalkUnderFaults's Path, and a pair with a faulty endpoint is not
// walked and records nothing. Every item the record blocked on must be
// faulty, and every item it mentions, blocked or on a taken hop, must
// list the pair among its candidates.
func checkWalks(t *testing.T, name string, we *WalkEngine, ft *routing.FailoverTables, faults *routing.FaultSet) {
	t.Helper()
	for i, p := range ft.Pairs() {
		src, dst := int(p[0]), int(p[1])
		var want []int32
		if !faults.NodeFaulty(src) && !faults.NodeFaulty(dst) {
			path := ft.WalkUnderFaults(src, dst, faults).Path
			for h := 1; h < len(path); h++ {
				if it, ok := we.items.Link(path[h-1], path[h]); ok {
					want = append(want, int32(it))
				}
				want = append(want, int32(path[h]))
			}
		}
		var took, blocked []int32
		for _, c := range we.rec[i] {
			if c >= 0 {
				blocked = append(blocked, c)
				continue
			}
			if link := we.hopLink[^c]; link >= 0 {
				took = append(took, link)
			}
			took = append(took, we.lay.Hops[^c])
		}
		if !slices.Equal(took, want) {
			t.Fatalf("%s: pair (%d,%d) record takes %v, walk items %v", name, src, dst, took, want)
		}
		for _, it := range blocked {
			if !we.faults.Has(int(it)) {
				t.Fatalf("%s: pair (%d,%d) record blocks on item %d, which is not faulty", name, src, dst, it)
			}
		}
		for _, it := range append(blocked, took...) {
			if _, ok := slices.BinarySearch(we.cands[we.candOff[it]:we.candOff[it+1]], int32(i)); !ok {
				t.Fatalf("%s: pair (%d,%d) record mentions item %d, whose candidates omit it", name, src, dst, it)
			}
		}
	}
}

// walkState is a deep copy of a WalkEngine's stats, outcomes and walk
// records.
type walkState struct {
	stats    CutStats
	outcomes []routing.Outcome
	records  [][]int32
}

func snapshotWalks(we *WalkEngine) walkState {
	return walkState{we.stats, slices.Clone(we.outcome), cloneRecords(we.rec)}
}

// checkUnchanged asserts that we holds exactly the state s.
func checkUnchanged(t *testing.T, name string, we *WalkEngine, s walkState) {
	t.Helper()
	if we.Stats() != s.stats {
		t.Fatalf("%s: stats moved from %v to %v", name, s.stats, we.Stats())
	}
	for i := range s.outcomes {
		if we.Outcome(i) != s.outcomes[i] || !slices.Equal(we.rec[i], s.records[i]) {
			t.Fatalf("%s: pair %d moved from %v %v to %v %v", name, i, s.outcomes[i], s.records[i], we.Outcome(i), we.rec[i])
		}
	}
}

// TestWalkProbeMatchesToggle pins probe to the toggle sequence it
// replaces in greedy rounds: on every instance, under the empty set and
// seeded mixed sets, probing each item the set does not hold scores
// what toggling it on and reading Stats does, and leaves the stats,
// every outcome and every walk record exactly as they were.
func TestWalkProbeMatchesToggle(t *testing.T) {
	for _, inst := range walkEngineInstances(t) {
		we := NewWalkEngine(inst.ft, inst.g)
		universe := we.faults.Cap()
		rng := rand.New(rand.NewSource(11))
		for round := 0; round < 5; round++ {
			for k := 0; k < round; k++ { // round 0 probes under the empty set
				we.toggle(rng.Intn(universe), true)
			}
			name := fmt.Sprintf("%s under %v", inst.name, we.faults.Elements())
			for it := 0; it < universe; it++ {
				if we.faults.Has(it) {
					continue
				}
				before := snapshotWalks(we)
				got := we.probe(it, walkScore{}, walkScore{})
				checkUnchanged(t, fmt.Sprintf("%s after probing %d", name, it), we, before)
				we.toggle(it, true)
				want := we.Stats()
				we.toggle(it, false)
				if !got.ok || got.stats != want {
					t.Fatalf("%s: probe(%d) scores %v, toggle %v", name, it, got.stats, want)
				}
				if we.Stats() != before.stats || !slices.Equal(we.outcome, before.outcomes) {
					t.Fatalf("%s: toggling %d on and off moved the outcomes", name, it)
				}
			}
			nodes, cuts := we.NodeFaultList(), we.CutList()
			checkWalks(t, name, we, inst.ft, routing.FaultSetOf(inst.ft.N(), nodes, cuts))
			we.Reset()
		}
	}
}

// TestWalkEngineTogglesMatchLegacy drives every instance through a
// deterministic add/remove cut sequence and checks the cached outcomes
// (not just counts) against fresh legacy walks after every toggle.
func TestWalkEngineTogglesMatchLegacy(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		we := NewWalkEngine(it.ft, it.g)
		if we.PairCount() != len(it.ft.Pairs()) {
			t.Fatalf("%s: engine holds %d pairs, tables %d", it.name, we.PairCount(), len(it.ft.Pairs()))
		}
		checkEngineState(t, it.name, we, it.ft, nil)
		edges := it.g.Edges()
		rng := rand.New(rand.NewSource(7))
		live := map[[2]int]bool{}
		var cuts []routing.EdgeFault
		rebuildCuts := func() {
			cuts = cuts[:0]
			for _, e := range edges {
				if live[e] {
					cuts = append(cuts, routing.EdgeFault{U: e[0], V: e[1]})
				}
			}
		}
		for step := 0; step < 40; step++ {
			e := edges[rng.Intn(len(edges))]
			if live[e] {
				we.RemoveLinkCut(e[0], e[1])
				delete(live, e)
			} else {
				we.AddLinkCut(e[0], e[1])
				live[e] = true
			}
			rebuildCuts()
			checkEngineState(t, it.name, we, it.ft, cuts)
		}
		// Clones must be independent: mutate the clone, the original
		// must not move.
		c := we.Clone()
		before := we.Stats()
		c.Reset()
		if we.Stats() != before {
			t.Fatalf("%s: resetting a clone mutated the original", it.name)
		}
		checkEngineState(t, it.name+" clone", c, it.ft, nil)
		// SetCuts replaces the whole set by symmetric difference.
		target := []routing.EdgeFault{{U: edges[0][0], V: edges[0][1]}, {U: edges[len(edges)-1][0], V: edges[len(edges)-1][1]}}
		we.SetCuts(target)
		checkEngineState(t, it.name+" setcuts", we, it.ft, target)
		we.Reset()
		checkEngineState(t, it.name+" reset", we, it.ft, nil)
		if we.HasLinkCut(edges[0][0], edges[0][1]) {
			t.Fatalf("%s: reset left a cut behind", it.name)
		}
	}
}

// TestWalkEngineDisruptedPairs checks the disrupted-pair accessor
// against the legacy per-pair classification.
func TestWalkEngineDisruptedPairs(t *testing.T) {
	it := walkEngineInstances(t)[0] // C9 rank-1: single cut strands pairs
	we := NewWalkEngine(it.ft, it.g)
	cut := []routing.EdgeFault{{U: 0, V: 1}}
	we.SetCuts(cut)
	outs, _ := legacyOutcomes(it.ft, cut)
	var want [][2]int32
	for i, o := range outs {
		if o != routing.Delivered {
			p := it.ft.Pairs()[i]
			want = append(want, p)
		}
	}
	if got := we.DisruptedPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("disrupted pairs %v, want %v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("cutting a C9 link should disrupt rank-1 pairs")
	}
}

// TestWorstLinkCutsEngineMatchesLegacy pins the full adversary —
// exhaustive, sampled+concentrator+greedy, and the parallel variant —
// to the legacy re-walk implementation, witness and Evaluated included.
func TestWorstLinkCutsEngineMatchesLegacy(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		for budget := 0; budget <= 2; budget++ {
			cfgs := []Config{
				{Mode: Exhaustive},
				{Mode: Sampled, Samples: 15, Seed: 3},
				{Mode: Sampled, Samples: 10, Greedy: true, Seed: 5},
			}
			for _, cfg := range cfgs {
				want := fromOracleCuts(oracle.WorstLinkCuts(it.ft, it.g, budget, oc(cfg)))
				got := WorstLinkCuts(it.ft, it.g, budget, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s budget %d cfg %+v: engine %v, legacy %v", it.name, budget, cfg, got, want)
				}
				par := WorstLinkCutsParallel(it.ft, it.g, budget, cfg, 4)
				if !reflect.DeepEqual(par, want) {
					t.Fatalf("%s budget %d cfg %+v: parallel %v, legacy %v", it.name, budget, cfg, par, want)
				}
			}
		}
	}
}

// TestWorstLinkCutsParallelWorkerCounts checks the merge is worker-count
// independent, including workers > units.
func TestWorstLinkCutsParallelWorkerCounts(t *testing.T) {
	it := walkEngineInstances(t)[1] // Q3 reinforced
	cfg := Config{Mode: Exhaustive}
	want := WorstLinkCuts(it.ft, it.g, 2, cfg)
	for _, workers := range []int{1, 2, 3, 64} {
		if got := WorstLinkCutsParallel(it.ft, it.g, 2, cfg, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: %v, want %v", workers, got, want)
		}
	}
}
