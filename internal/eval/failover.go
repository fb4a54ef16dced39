package eval

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file is the packet-level adversary against static-failover
// tables. Unlike the surviving-route-graph searches in the rest of the
// package — which ask whether *some* route of a pair survives — the
// link-cut adversary evaluates how the tables actually forward: every
// ordered pair is walked hop by hop through
// FailoverTables.WalkUnderFaults under a candidate cut set, and the
// outcome counts (delivered / blackhole / loop) are the objective. This
// is the experiment of Chiesa et al.'s static-failover model: an
// adversary that cuts wires (never kills switches) and wants to disrupt
// as many source-destination pairs as possible within a budget.
//
// Search modes mirror Config: Exhaustive enumerates every cut set of
// size 0..budget over the graph's links in lexicographic order — exact
// but binomial, use for small graphs or budgets; the default Sampled
// mode draws random cut sets of the full budget and adds two
// deterministic heuristics: a greedy adversary growing the cut one
// worst link at a time (enabled by cfg.Greedy), and a concentrator
// probe enumerating cut subsets of the links incident to the node
// holding the most table entries — the static-failover analogue of the
// paper's concentrator, where cutting a few adjacent wires severs many
// routes at once.

// CutStats counts walk outcomes over all table pairs under one fault
// set. Skipped stays zero under pure link cuts; it only appears under
// mixed faults, when a pair's own endpoint is failed.
type CutStats struct {
	Pairs     int // ordered pairs with table entries
	Delivered int
	Blackhole int // walk stuck at a node with no live entry
	Loop      int // walk revisited a node (cycles forever)
	Skipped   int // pair not walked: its src or dst node is failed
}

// Disrupted returns the pairs whose packets the tables mishandled.
// Skipped pairs are excluded: a pair whose endpoint is dead has no
// packet to misroute, so killing endpoints earns the adversary nothing.
func (s CutStats) Disrupted() int { return s.Blackhole + s.Loop }

// String renders the stats compactly.
func (s CutStats) String() string {
	if s.Skipped > 0 {
		return fmt.Sprintf("%d/%d delivered (%d blackhole, %d loop, %d skipped)",
			s.Delivered, s.Pairs, s.Blackhole, s.Loop, s.Skipped)
	}
	return fmt.Sprintf("%d/%d delivered (%d blackhole, %d loop)", s.Delivered, s.Pairs, s.Blackhole, s.Loop)
}

// EvaluateMixedFaults walks every table pair under the given failed
// nodes and cut links and returns the outcome counts — the single-set
// evaluation the adversaries search over, exported for experiments and
// the CLI; with no nodes it scores a pure cut set. Pairs with a failed
// endpoint are not walked and count as Skipped; the rest go through
// WalkUnderFaults. Nodes outside 0..n-1 are ignored, by
// routing.FaultSet as by WalkEngine.SetMixedFaults. The WalkEngine
// keeps the same counts incrementally (FuzzWalkEngineEquivalence pins
// the two).
func EvaluateMixedFaults(t *routing.FailoverTables, nodes []int, cuts []routing.EdgeFault) CutStats {
	faults := routing.FaultSetOf(t.N(), nodes, cuts)
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

// MixedCutResult is the report of every walk search (WorstLinkCuts,
// WorstMixedFaults and the Parallel variants): the worst fault set
// found against a table set, split into its nodes and its links, and
// the walk outcomes under it. A search over links only reports
// WorstNodes as []int{}. The name keeps "Mixed" because bench/ftbench
// reads the type by name.
type MixedCutResult struct {
	WorstNodes []int               // node part of the worst set, sorted
	WorstCuts  []routing.EdgeFault // link part, normalized and sorted
	Stats      CutStats            // outcomes under the worst set
	Evaluated  int                 // number of fault sets evaluated
}

// String renders the result compactly.
func (r MixedCutResult) String() string {
	return fmt.Sprintf("worst mixed F=%v E=%v: %v (%d sets)", r.WorstNodes, r.WorstCuts, r.Stats, r.Evaluated)
}

// WorstLinkCuts searches for the cut set of size at most budget that
// disrupts the most (src, dst) pairs of the failover tables t, walking
// each pair packet-by-packet with local failover. g must be the graph
// the tables were compiled for (it supplies the cuttable links).
// Exhaustive mode is exact; the default Sampled mode combines random
// sampling, the concentrator probe, and (with cfg.Greedy) a greedy
// grow-one-link adversary. The empty cut set is always evaluated first,
// so a returned empty WorstCuts means no evaluated cut disrupts
// anything. Ties keep the earlier set, so the reported worst set is
// deterministic. The report's WorstNodes is always []int{}.
func WorstLinkCuts(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) MixedCutResult {
	return WorstLinkCutsParallel(t, g, budget, cfg, 1)
}

// WorstLinkCutsParallel is WorstLinkCuts fanned out over worker
// goroutines on per-worker engine clones (workers <= 0 means
// GOMAXPROCS). Sub-results merge in enumeration order, so the result is
// identical to the sequential search.
func WorstLinkCutsParallel(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int) MixedCutResult {
	return worstWalk(t, g, budget, cfg, workers, false)
}

// WorstMixedFaults searches mixed fault sets — any combination of
// failed nodes and cut links of total size at most budget — for the one
// disrupting the most (src, dst) pairs of the failover tables t, or
// with cfg.SkippedWeight λ the one maximizing disrupted + λ·skipped.
// Search modes are those of WorstLinkCuts over the n+m item universe;
// the concentrator probe covers the concentrator node itself plus its
// wires. A failed node removes its own pairs from play rather than
// disrupting them: those pairs count as Skipped, so the search rewards
// fault sets that strand other pairs' packets — the concentrator
// phenomenon of the paper.
func WorstMixedFaults(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) MixedCutResult {
	return WorstMixedFaultsParallel(t, g, budget, cfg, 1)
}

// WorstMixedFaultsParallel is WorstMixedFaults fanned out over worker
// goroutines as WorstLinkCutsParallel is; the result is identical to
// the sequential search.
func WorstMixedFaultsParallel(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int) MixedCutResult {
	return worstWalk(t, g, budget, cfg, workers, true)
}

// worstWalk runs the walk adversary over the links, plus the nodes when
// nodes is set, and reports its worst set.
func worstWalk(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int, nodes bool) MixedCutResult {
	we := NewWalkEngine(t, g)
	if nodes {
		we.lambda = cfg.SkippedWeight
	}
	s := newSearch(we, we.items.Universe(nodes, true), workers)
	budget = min(max(budget, 0), len(s.items))
	var b best[walkScore]
	if cfg.Mode == Exhaustive {
		s.hi = budget
		s.exhaustive(&b)
	} else {
		s.visitSet(&s.main, &b)
		if budget > 0 {
			s.sampled(&b, budget, cfg.samples(), cfg.Seed)
		}
		c := *s // the concentrator probe runs on the root, over its own items
		c.items = we.concentratorItems(nodes)
		c.below(&c.main, 0, budget, &b)
		if cfg.Greedy {
			s.greedy(&b, budget)
		}
	}
	worstNodes, worstCuts := split(we.items, b.items)
	return MixedCutResult{WorstNodes: worstNodes, WorstCuts: worstCuts, Stats: b.score.stats, Evaluated: b.evaluated}
}

// concentratorItems lists the probe targets: the node holding the most
// table entries (ties to the lowest id; omitted from link-only
// searches) and its incident links in neighbor order. Killing the
// concentrator is the paper's node attack, cutting its wires the link
// attack — the probe covers every combination of the two within budget.
func (we *WalkEngine) concentratorItems(nodes bool) []int {
	conc, most := -1, -1
	for v := 0; v < we.n; v++ {
		if e := we.t.EntriesAt(v); e > most {
			conc, most = v, e
		}
	}
	if conc < 0 || most == 0 {
		return nil
	}
	var items []int
	if nodes {
		items = append(items, conc)
	}
	we.g.EachNeighbor(conc, func(w int) bool {
		if it, ok := we.items.Link(conc, w); ok {
			items = append(items, it)
		}
		return true
	})
	return items
}

// walkScore is the WalkEngine score: the outcome counts of a measured
// set; the zero value is the bottom score.
type walkScore struct {
	stats CutStats
	ok    bool
}

// The evaluator contract of the search driver (toggle is in
// walkengine.go). Walks have no bounded kernel and no final score.

func (we *WalkEngine) clone() *WalkEngine { return we.Clone() }

func (we *WalkEngine) reset() { we.Reset() }

func (we *WalkEngine) score(_, _ walkScore) walkScore { return walkScore{we.stats, true} }

// probe scores the set plus item with toggle's candidate scan, walking
// into scratch: it stores no record, outcome or stats, and clears the
// item's fault bit again before it returns.
func (we *WalkEngine) probe(item int, _, _ walkScore) walkScore {
	if item >= we.faults.Cap() || we.faults.Has(item) {
		return walkScore{we.stats, true}
	}
	we.faults.Add(item)
	s := we.rewalk(item, false)
	we.faults.Remove(item)
	return walkScore{s, true}
}

// better ranks by disrupted pairs, or with λ by disrupted + λ·skipped.
func (we *WalkEngine) better(a, b walkScore) bool {
	switch {
	case !a.ok || !b.ok:
		return a.ok
	case we.lambda == 0:
		return a.stats.Disrupted() > b.stats.Disrupted()
	}
	return float64(a.stats.Disrupted())+we.lambda*float64(a.stats.Skipped) >
		float64(b.stats.Disrupted())+we.lambda*float64(b.stats.Skipped)
}

func (we *WalkEngine) final(walkScore) bool { return false }
