package oracle

import (
	"math/rand"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// MaxDiameterMixed searches mixed fault sets of total size at most f
// over the n+m item universe (nodes first, then g.Edges() in order),
// rebuilding the literal mixed surviving graph per set.
func MaxDiameterMixed(s MixedSurvivor, f int, cfg Config) MixedResult {
	if cfg.Mode == Exhaustive {
		return exhaustiveMixed(s, f)
	}
	return sampledMixed(s, f, cfg)
}

// evalOneMixed is evalOne over a mixed fault set.
func evalOneMixed(s MixedSurvivor, nf *graph.Bitset, edges []routing.EdgeFault, res *MixedResult) {
	res.Evaluated++
	d := s.SurvivingGraphMixed(nf, edges)
	if d.EnabledCount() <= 1 {
		return
	}
	diam, ok := d.Diameter()
	if !ok {
		if !res.Disconnected {
			res.Disconnected = true
			res.WorstNodeFaults = nf.Clone()
			res.WorstEdgeFaults = sortedEdgeFaults(edges)
		}
		return
	}
	if !res.Disconnected && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstNodeFaults = nf.Clone()
		res.WorstEdgeFaults = sortedEdgeFaults(edges)
	}
}

// mixedState is the current mixed set of an enumeration: a node bitset
// plus the link list, toggled one universe item at a time (LIFO for
// links).
type mixedState struct {
	n     int
	edges [][2]int
	nf    *graph.Bitset
	ef    []routing.EdgeFault
}

func newMixedState(g *graph.Graph) *mixedState {
	return &mixedState{n: g.N(), edges: g.Edges(), nf: graph.NewBitset(g.N())}
}

func (st *mixedState) toggle(v int, add bool) {
	switch {
	case v < st.n && add:
		st.nf.Add(v)
	case v < st.n:
		st.nf.Remove(v)
	case add:
		st.ef = append(st.ef, routing.EdgeFault{U: st.edges[v-st.n][0], V: st.edges[v-st.n][1]})
	default:
		st.ef = st.ef[:len(st.ef)-1]
	}
}

// exhaustiveMixed enumerates all mixed fault sets of size 0..f in
// preorder over the item universe.
func exhaustiveMixed(s MixedSurvivor, f int) MixedResult {
	if f < 0 {
		f = 0
	}
	st := newMixedState(s.Graph())
	items := st.n + len(st.edges)
	res := MixedResult{WorstNodeFaults: graph.NewBitset(st.n)}
	evalOneMixed(s, st.nf, st.ef, &res)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for v := start; v < items; v++ {
			st.toggle(v, true)
			evalOneMixed(s, st.nf, st.ef, &res)
			rec(v+1, left-1)
			st.toggle(v, false)
		}
	}
	rec(0, f)
	return res
}

// drawMixedFaults draws one uniform mixed fault set of size exactly f
// over the n+m item universe.
func drawMixedFaults(rng *rand.Rand, n int, edges [][2]int, f int) (*graph.Bitset, []routing.EdgeFault) {
	items := graph.NewBitset(n + len(edges))
	for items.Count() < f {
		items.Add(rng.Intn(n + len(edges)))
	}
	nf := graph.NewBitset(n)
	var ef []routing.EdgeFault
	for _, it := range items.Elements() {
		if it < n {
			nf.Add(it)
		} else {
			ef = append(ef, routing.EdgeFault{U: edges[it-n][0], V: edges[it-n][1]})
		}
	}
	return nf, ef
}

// sampledMixed draws random mixed sets of size exactly f (clamped to
// the universe) and optionally runs the greedy mixed adversary.
func sampledMixed(s MixedSurvivor, f int, cfg Config) MixedResult {
	n := s.Graph().N()
	edges := s.Graph().Edges()
	if f > n+len(edges) {
		f = n + len(edges)
	}
	if f < 0 {
		f = 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	evalOneMixed(s, graph.NewBitset(n), nil, &res)
	for i := 0; i < cfg.samples(); i++ {
		nf, ef := drawMixedFaults(rng, n, edges, f)
		evalOneMixed(s, nf, ef, &res)
	}
	if cfg.Greedy {
		greedyMixed(s, f, true, &res)
	}
	return res
}

// greedyMixed grows a mixed fault set one item at a time, keeping the
// item whose addition maximizes the surviving diameter (preferring
// disconnection, ties to the lowest item). With nodesToo false only
// links are candidates.
func greedyMixed(s MixedSurvivor, f int, nodesToo bool, res *MixedResult) {
	st := newMixedState(s.Graph())
	items := st.n + len(st.edges)
	chosen := graph.NewBitset(items)
	first := 0
	if !nodesToo {
		first = st.n
	}
	for round := 0; round < f; round++ {
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := first; v < items; v++ {
			if chosen.Has(v) {
				continue
			}
			st.toggle(v, true)
			res.Evaluated++
			d := s.SurvivingGraphMixed(st.nf, st.ef)
			if d.EnabledCount() > 1 {
				diam, ok := d.Diameter()
				disc := !ok
				if disc && !bestDisc {
					bestV, bestDiam, bestDisc = v, diam, true
				} else if !disc && !bestDisc && diam > bestDiam {
					bestV, bestDiam = v, diam
				}
			}
			st.toggle(v, false)
		}
		if bestV == -1 {
			break
		}
		chosen.Add(bestV)
		st.toggle(bestV, true)
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstNodeFaults = st.nf.Clone()
				res.WorstEdgeFaults = sortedEdgeFaults(st.ef)
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstNodeFaults = st.nf.Clone()
			res.WorstEdgeFaults = sortedEdgeFaults(st.ef)
		}
	}
}

// GreedyEdgeAdversary grows a pure link-fault set of size at most f.
func GreedyEdgeAdversary(s MixedSurvivor, f int) MixedResult {
	n := s.Graph().N()
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	evalOneMixed(s, graph.NewBitset(n), nil, &res)
	greedyMixed(s, f, false, &res)
	return res
}

// ProfileMixed reports, for each total mixed fault-set size 0..f, the
// worst surviving diameter (-1 encodes disconnection).
func ProfileMixed(s MixedSurvivor, f int, cfg Config) []int {
	out := make([]int, f+1)
	for k := 0; k <= f; k++ {
		var res MixedResult
		if cfg.Mode == Exhaustive {
			res = exhaustiveExactMixed(s, k)
		} else {
			res = sampledMixed(s, k, cfg)
		}
		out[k] = res.MaxDiameter
		if res.Disconnected {
			out[k] = -1
		}
	}
	return out
}

// exhaustiveExactMixed enumerates mixed fault sets of size exactly k.
func exhaustiveExactMixed(s MixedSurvivor, k int) MixedResult {
	st := newMixedState(s.Graph())
	items := st.n + len(st.edges)
	res := MixedResult{WorstNodeFaults: graph.NewBitset(st.n)}
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			evalOneMixed(s, st.nf, st.ef, &res)
			return
		}
		if items-start < left {
			return
		}
		for v := start; v < items; v++ {
			st.toggle(v, true)
			rec(v+1, left-1)
			st.toggle(v, false)
		}
	}
	rec(0, k)
	return res
}

// ConcentratorEdgeAdversary enumerates every subset of size at most f of
// the target links (normalized, exact duplicates dropped) plus the empty
// set.
func ConcentratorEdgeAdversary(s MixedSurvivor, f int, targets []routing.EdgeFault) MixedResult {
	n := s.Graph().N()
	seen := make(map[routing.EdgeFault]bool, len(targets))
	var uniq []routing.EdgeFault
	for _, t := range targets {
		t = t.Normalize()
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	nf := graph.NewBitset(n)
	var cur []routing.EdgeFault
	evalOneMixed(s, nf, cur, &res)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(uniq); i++ {
			cur = append(cur, uniq[i])
			evalOneMixed(s, nf, cur, &res)
			rec(i+1, left-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, f)
	return res
}

// mixedComponents returns the connected components of G minus the
// faulty nodes and links, each sorted, ordered by smallest member.
func mixedComponents(g *graph.Graph, nf *graph.Bitset, ef []routing.EdgeFault) [][]int {
	if len(ef) == 0 {
		return graph.NewItems(g).Components(nf)
	}
	bad := make(map[routing.EdgeFault]bool, len(ef))
	for _, e := range ef {
		bad[e.Normalize()] = true
	}
	n := g.N()
	seen := graph.NewBitset(n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen.Has(s) || nf.Has(s) {
			continue
		}
		comp := []int{}
		queue := []int{s}
		seen.Add(s)
		for head := 0; head < len(queue); head++ {
			u := queue[head]
			comp = append(comp, u)
			g.EachNeighbor(u, func(v int) bool {
				if !seen.Has(v) && !nf.Has(v) && !bad[(routing.EdgeFault{U: u, V: v}).Normalize()] {
					seen.Add(v)
					queue = append(queue, v)
				}
				return true
			})
		}
		for i := 1; i < len(comp); i++ {
			for j := i; j > 0 && comp[j-1] > comp[j]; j-- {
				comp[j-1], comp[j] = comp[j], comp[j-1]
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// BeyondToleranceMixed evaluates every mixed fault set of total size
// exactly f and reports componentwise behavior under the literal mixed
// model.
func BeyondToleranceMixed(s MixedSurvivor, f int) BeyondResult {
	g := s.Graph()
	st := newMixedState(g)
	items := st.n + len(st.edges)
	res := BeyondResult{WorstFaults: graph.NewBitset(st.n)}
	firstShatter := true
	leaf := func() {
		res.Evaluated++
		comps := mixedComponents(g, st.nf, st.ef)
		if len(comps) <= 1 {
			res.GraphConnected++
		}
		worst, shattered := componentwise(s.SurvivingGraphMixed(st.nf, st.ef), comps)
		if shattered {
			res.Shattered++
			if firstShatter {
				res.WorstFaults = st.nf.Clone()
				res.WorstEdgeFaults = sortedEdgeFaults(st.ef)
				firstShatter = false
			}
		}
		if worst > res.WorstComponentDiameter {
			res.WorstComponentDiameter = worst
			if firstShatter {
				res.WorstFaults = st.nf.Clone()
				res.WorstEdgeFaults = sortedEdgeFaults(st.ef)
			}
		}
	}
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			leaf()
			return
		}
		if items-start < left {
			return
		}
		for v := start; v < items; v++ {
			st.toggle(v, true)
			rec(v+1, left-1)
			st.toggle(v, false)
		}
	}
	rec(0, f)
	return res
}
