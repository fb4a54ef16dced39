package oracle

import (
	"math/rand"
	"sort"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// CutStats mirrors eval.CutStats.
type CutStats struct {
	Pairs     int
	Delivered int
	Blackhole int
	Loop      int
	Skipped   int
}

// Disrupted returns the pairs whose packets the tables mishandled.
func (s CutStats) Disrupted() int { return s.Blackhole + s.Loop }

// CutResult mirrors eval.MixedCutResult of a link-only search, whose
// node part is []int{}.
type CutResult struct {
	Worst     []routing.EdgeFault
	Stats     CutStats
	Evaluated int
}

// MixedCutResult mirrors eval.MixedCutResult.
type MixedCutResult struct {
	WorstNodes []int
	WorstCuts  []routing.EdgeFault
	Stats      CutStats
	Evaluated  int
}

// walkAll walks every table pair under faults; pairs with a failed
// endpoint count as Skipped.
func walkAll(t *routing.FailoverTables, faults *routing.FaultSet) CutStats {
	var s CutStats
	for _, p := range t.Pairs() {
		s.Pairs++
		if faults.NodeFaulty(int(p[0])) || faults.NodeFaulty(int(p[1])) {
			s.Skipped++
			continue
		}
		switch t.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome {
		case routing.Delivered:
			s.Delivered++
		case routing.Blackhole:
			s.Blackhole++
		default:
			s.Loop++
		}
	}
	return s
}

// walkState is the mutable enumeration state of the reference walk
// adversaries: one fault set plus the current node and link lists,
// toggled one universe item at a time (LIFO), every probed set
// re-walking all pairs. Item v < n is node v, item v >= n is link v-n.
type walkState struct {
	t      *routing.FailoverTables
	g      *graph.Graph
	edges  [][2]int
	n      int
	first  int // first candidate item: 0 for mixed searches, n for link cuts
	worse  func(a, b CutStats) bool
	faults *routing.FaultSet
	nodes  []int
	cuts   []routing.EdgeFault

	stats     CutStats
	witN      []int
	witC      []routing.EdgeFault
	evaluated int
}

func (st *walkState) toggle(v int, add bool) {
	if v < st.n {
		if add {
			st.faults.FailNode(v)
			st.nodes = append(st.nodes, v)
		} else {
			st.faults.RepairNode(v)
			st.nodes = st.nodes[:len(st.nodes)-1]
		}
		return
	}
	e := routing.EdgeFault{U: st.edges[v-st.n][0], V: st.edges[v-st.n][1]}
	if add {
		st.faults.FailLink(e.U, e.V)
		st.cuts = append(st.cuts, e)
	} else {
		st.faults.RepairLink(e.U, e.V)
		st.cuts = st.cuts[:len(st.cuts)-1]
	}
}

// consider folds s, the outcome under the current set, into the result:
// only a strictly worse set replaces the incumbent.
func (st *walkState) consider(s CutStats) {
	if st.worse(s, st.stats) {
		st.stats = s
		st.witN = append(make([]int, 0, len(st.nodes)), st.nodes...)
		sort.Ints(st.witN)
		st.witC = sortedEdgeFaults(st.cuts)
	}
}

func (st *walkState) eval() CutStats { return walkAll(st.t, st.faults) }

// run is the shared reference search over items first..n+m-1.
func run(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, nodes bool, worse func(a, b CutStats) bool) *walkState {
	st := &walkState{t: t, g: g, edges: g.Edges(), n: g.N(), first: g.N(), worse: worse, faults: routing.NewFaultSet(t.N())}
	if nodes {
		st.first = 0
	}
	items := st.n + len(st.edges)
	if budget < 0 {
		budget = 0
	}
	if budget > items-st.first {
		budget = items - st.first
	}
	st.stats, st.witN, st.witC, st.evaluated = st.eval(), []int{}, []routing.EdgeFault{}, 1
	if cfg.Mode == Exhaustive {
		st.descend(st.first, budget)
		return st
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for s := 0; s < cfg.samples() && budget > 0; s++ {
		ids := graph.NewBitset(items - st.first)
		for ids.Count() < budget {
			ids.Add(rng.Intn(items - st.first))
		}
		drawn := ids.Elements()
		for _, v := range drawn {
			st.toggle(st.first+v, true)
		}
		st.evaluated++
		st.consider(st.eval())
		for i := len(drawn) - 1; i >= 0; i-- {
			st.toggle(st.first+drawn[i], false)
		}
	}
	st.concentrator(budget)
	if cfg.Greedy {
		st.greedy(budget)
	}
	return st
}

// descend enumerates every set of size 1..left with items >= start in
// lexicographic preorder.
func (st *walkState) descend(start, left int) {
	if left == 0 {
		return
	}
	for v := start; v < st.n+len(st.edges); v++ {
		st.toggle(v, true)
		st.evaluated++
		st.consider(st.eval())
		st.descend(v+1, left-1)
		st.toggle(v, false)
	}
}

// concentrator enumerates every subset of size 1..budget of the node
// holding the most table entries (mixed searches only) followed by its
// incident links in neighbor order.
func (st *walkState) concentrator(budget int) {
	conc, best := -1, -1
	for v := 0; v < st.n && v < st.t.N(); v++ {
		if e := st.t.EntriesAt(v); e > best {
			conc, best = v, e
		}
	}
	if conc < 0 || best == 0 {
		return
	}
	edgeID := make(map[[2]int]int, len(st.edges))
	for i, e := range st.edges {
		edgeID[e] = i
	}
	var targets []int
	if st.first == 0 {
		targets = append(targets, conc)
	}
	st.g.EachNeighbor(conc, func(w int) bool {
		key := [2]int{conc, w}
		if conc > w {
			key = [2]int{w, conc}
		}
		if id, ok := edgeID[key]; ok {
			targets = append(targets, st.n+id)
		}
		return true
	})
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			st.toggle(targets[i], true)
			st.evaluated++
			st.consider(st.eval())
			rec(i+1, left-1)
			st.toggle(targets[i], false)
		}
	}
	rec(0, budget)
}

// greedy grows a set one item at a time, each round keeping the item
// whose addition scores worst (ties to the lowest item). The fault set
// ends restored to empty.
func (st *walkState) greedy(budget int) {
	items := st.n + len(st.edges)
	chosen := graph.NewBitset(items)
	var grown []int
	for round := 0; round < budget; round++ {
		bestI, bestStats := -1, CutStats{}
		for v := st.first; v < items; v++ {
			if chosen.Has(v) {
				continue
			}
			st.toggle(v, true)
			st.evaluated++
			s := st.eval()
			if bestI == -1 || st.worse(s, bestStats) {
				bestI, bestStats = v, s
			}
			st.toggle(v, false)
		}
		if bestI == -1 {
			break
		}
		chosen.Add(bestI)
		st.toggle(bestI, true)
		grown = append(grown, bestI)
		st.consider(bestStats)
	}
	for i := len(grown) - 1; i >= 0; i-- {
		st.toggle(grown[i], false)
	}
}

// WorstLinkCuts is the reference link-cut adversary: every probed cut
// set re-walks all pairs.
func WorstLinkCuts(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) CutResult {
	st := run(t, g, budget, cfg, false, func(a, b CutStats) bool { return a.Disrupted() > b.Disrupted() })
	return CutResult{Worst: st.witC, Stats: st.stats, Evaluated: st.evaluated}
}

// WorstMixedFaults is the reference mixed (node + link) adversary,
// ranking sets by disrupted + SkippedWeight·skipped.
func WorstMixedFaults(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) MixedCutResult {
	lambda := cfg.SkippedWeight
	worse := func(a, b CutStats) bool { return a.Disrupted() > b.Disrupted() }
	if lambda != 0 {
		worse = func(a, b CutStats) bool {
			return float64(a.Disrupted())+lambda*float64(a.Skipped) > float64(b.Disrupted())+lambda*float64(b.Skipped)
		}
	}
	st := run(t, g, budget, cfg, true, worse)
	return MixedCutResult{WorstNodes: st.witN, WorstCuts: st.witC, Stats: st.stats, Evaluated: st.evaluated}
}
