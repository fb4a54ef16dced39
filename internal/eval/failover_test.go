package eval

import (
	"reflect"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

// TestEvaluateMixedFaultsMatchesWalks: with no failed nodes,
// EvaluateMixedFaults scores a cut set as one WalkUnderFaults per pair.
func TestEvaluateMixedFaultsMatchesWalks(t *testing.T) {
	g := gen.Petersen()
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.FailoverFromRouting(r)
	cuts := []routing.EdgeFault{{U: 0, V: 1}, {U: 5, V: 7}}
	got := EvaluateMixedFaults(ft, nil, cuts)
	faults := routing.FaultSetOf(g.N(), nil, cuts)
	want := CutStats{}
	for _, p := range ft.Pairs() {
		want.Pairs++
		switch ft.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome {
		case routing.Delivered:
			want.Delivered++
		case routing.Blackhole:
			want.Blackhole++
		default:
			want.Loop++
		}
	}
	if got != want {
		t.Fatalf("EvaluateMixedFaults = %v, manual walks = %v", got, want)
	}
	if got.Pairs != got.Delivered+got.Disrupted() {
		t.Fatalf("outcome counts do not partition pairs: %v", got)
	}
	if got.Disrupted() == 0 {
		t.Fatal("cutting two Petersen links should strand someone on rank-1 tables")
	}
}

func TestWorstLinkCutsExhaustive(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.FailoverFromRouting(r)
	res := WorstLinkCuts(ft, g, 1, Config{Mode: Exhaustive})
	// 1 empty set + 6 single-link cuts.
	if res.Evaluated != 7 {
		t.Fatalf("evaluated %d sets, want 7", res.Evaluated)
	}
	if len(res.WorstCuts) != 1 {
		t.Fatalf("worst cut = %v, want a single link", res.WorstCuts)
	}
	if res.Stats.Disrupted() == 0 {
		t.Fatal("every cycle link carries routes; some cut must disrupt")
	}
	// Exact check: cutting one link of C6 blackholes every pair whose
	// unique shortest route crosses it. All links are symmetric, so the
	// first link in enumeration order wins every tie.
	if res.WorstCuts[0] != (routing.EdgeFault{U: 0, V: 1}) {
		t.Fatalf("worst cut = %v, want the first enumerated link {0,1}", res.WorstCuts)
	}
	again := WorstLinkCuts(ft, g, 1, Config{Mode: Exhaustive})
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("exhaustive search not deterministic: %v vs %v", res, again)
	}
}

func TestWorstLinkCutsEmptyBudget(t *testing.T) {
	g := gen.Petersen()
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.FailoverFromRouting(r)
	res := WorstLinkCuts(ft, g, 0, Config{Mode: Exhaustive})
	if res.Evaluated != 1 || len(res.WorstCuts) != 0 || res.Stats.Disrupted() != 0 {
		t.Fatalf("budget-0 search: %v", res)
	}
	if res.Stats.Delivered != res.Stats.Pairs || res.Stats.Pairs != g.N()*(g.N()-1) {
		t.Fatalf("fault-free stats wrong: %v", res.Stats)
	}
}

func TestWorstLinkCutsSampledDeterministic(t *testing.T) {
	g := gen.Petersen()
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.FailoverFromRouting(r)
	cfg := Config{Mode: Sampled, Samples: 50, Seed: 7, Greedy: true}
	res := WorstLinkCuts(ft, g, 2, cfg)
	again := WorstLinkCuts(ft, g, 2, cfg)
	if !reflect.DeepEqual(res, again) {
		t.Fatalf("sampled search not deterministic: %v vs %v", res, again)
	}
	if res.Stats.Disrupted() == 0 {
		t.Fatal("greedy+concentrator found no disruptive 2-cut on rank-1 Petersen tables")
	}
	if len(res.WorstCuts) > 2 {
		t.Fatalf("worst cut %v exceeds budget", res.WorstCuts)
	}
}

func TestSampledNeverWorseThanGreedyAlone(t *testing.T) {
	// The sampled search folds in the concentrator probe and greedy
	// adversary, so its worst cut must disrupt at least as much as an
	// exhaustive budget-1 search picks up with the same tables.
	g, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.FailoverFromRouting(r)
	ex := WorstLinkCuts(ft, g, 1, Config{Mode: Exhaustive})
	sa := WorstLinkCuts(ft, g, 1, Config{Mode: Sampled, Samples: 20, Seed: 1, Greedy: true})
	if sa.Stats.Disrupted() < ex.Stats.Disrupted() {
		t.Fatalf("greedy budget-1 (%v) weaker than exhaustive budget-1 (%v)", sa.Stats, ex.Stats)
	}
}

func TestReinforcementReducesDisruption(t *testing.T) {
	// Under the plain tables' worst single cut, reinforced tables must
	// deliver at least as many pairs: the first backup of each pair is
	// link-disjoint from its primary.
	g, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	plain := routing.FailoverFromRouting(r)
	m, err := routing.Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	reinforced := routing.CompileFailover(m)
	worst := WorstLinkCuts(plain, g, 1, Config{Mode: Exhaustive})
	if worst.Stats.Disrupted() == 0 {
		t.Fatal("no disruptive single cut on plain Q3 tables")
	}
	under := EvaluateMixedFaults(reinforced, nil, worst.WorstCuts)
	if under.Delivered < worst.Stats.Delivered {
		t.Fatalf("reinforced tables deliver %d < plain %d under cut %v", under.Delivered, worst.Stats.Delivered, worst.WorstCuts)
	}
}

// TestEvaluateMixedFaultsDropsOutOfRangeNodes pins EvaluateMixedFaults
// to the WalkEngine on node lists that put -1 and n around an in-range
// node: both ignore the out-of-range nodes, so each list scores exactly
// like its in-range part.
func TestEvaluateMixedFaultsDropsOutOfRangeNodes(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.FailoverFromRouting(r)
	n := g.N()
	cuts := []routing.EdgeFault{{U: g.Edges()[0][0], V: g.Edges()[0][1]}}
	for _, c := range []struct{ nodes, in []int }{
		{[]int{n}, nil},
		{[]int{-1}, nil},
		{[]int{-1, 5, n}, []int{5}},
		{[]int{n, 5, -1}, []int{5}},
		{[]int{5, n + 1000}, []int{5}},
	} {
		for _, cs := range [][]routing.EdgeFault{nil, cuts} {
			got := EvaluateMixedFaults(ft, c.nodes, cs)
			if want := EvaluateMixedFaults(ft, c.in, cs); got != want {
				t.Fatalf("F=%v E=%v: %v, in-range F=%v: %v", c.nodes, cs, got, c.in, want)
			}
			we := NewWalkEngine(ft, g)
			we.SetMixedFaults(c.nodes, cs)
			if we.Stats() != got {
				t.Fatalf("F=%v E=%v: EvaluateMixedFaults %v, engine %v", c.nodes, cs, got, we.Stats())
			}
		}
	}
}
