package eval

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file addresses the paper's Open Problem 3 empirically: "Suppose
// that there are more than t faults ... Are there routings that are
// 'well behaved' so long as the network is not disconnected and that
// continue to keep the diameter of the surviving graph small in the
// connected components if the network is disconnected?"
//
// Because every route is a path of G avoiding F, surviving-route-graph
// arcs never cross connected components of G−F; the meaningful metric
// beyond tolerance is therefore *componentwise*: within each component
// of G−F, how far apart can two nodes be in the surviving route graph,
// and do components ever shatter (route-graph disconnection inside a
// graph-connected component)? BeyondToleranceMixed extends the question
// to the literal mixed model, where faulty edges cut both the routes
// over them and the graph edges themselves, so G−F is G minus the
// faulty nodes and minus the faulty links.

// BeyondResult summarizes behavior at a fault count beyond (or at) the
// designed tolerance.
type BeyondResult struct {
	Evaluated      int // fault sets examined
	GraphConnected int // fault sets leaving G−F connected
	// Shattered counts fault sets where some component of G−F contains
	// a pair with no surviving route path — the "badly behaved" case of
	// Open Problem 3.
	Shattered int
	// WorstComponentDiameter is the maximum, over fault sets and over
	// components of G−F, of the surviving route graph's diameter within
	// the component (ignoring shattered components).
	WorstComponentDiameter int
	// WorstFaults witnesses either the first shattering or the worst
	// componentwise diameter.
	WorstFaults *graph.Bitset
	// WorstEdgeFaults is the edge part of the witness for the mixed
	// model (BeyondToleranceMixed); nil for node-only searches.
	WorstEdgeFaults []routing.EdgeFault
}

// componentwise measures the engine's current surviving route graph
// within each of comps: the worst in-component distance, and whether
// some component holds a pair with no surviving path. dist is scratch
// of length >= N.
func (e *Engine) componentwise(comps [][]int, dist []int) (int, bool) {
	worst := 0
	shattered := false
	for _, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		for _, u := range comp {
			e.DistancesFrom(u, dist)
			for _, v := range comp {
				if v == u {
					continue
				}
				if dist[v] == graph.Unreachable {
					shattered = true
					continue
				}
				if dist[v] > worst {
					worst = dist[v]
				}
			}
		}
	}
	return worst, shattered
}

// BeyondTolerance evaluates every fault set of size exactly f
// (exhaustive; intended for small instances) and reports componentwise
// behavior per Open Problem 3. A negative f evaluates nothing.
func BeyondTolerance(s RouteSource, f int) BeyondResult { return beyond(s, f, false) }

// BeyondToleranceMixed evaluates every mixed fault set of total size
// exactly f over the n+m item universe and reports componentwise
// behavior under the literal mixed model: a faulty link disappears from
// both the routing (routes over it die) and the network graph
// (components are those of G minus faulty nodes and links).
func BeyondToleranceMixed(s RouteSource, f int) BeyondResult { return beyond(s, f, true) }

func beyond(src RouteSource, f int, links bool) BeyondResult {
	e := NewEngine(src)
	res := BeyondResult{WorstFaults: graph.NewBitset(e.n)}
	if f < 0 {
		return res
	}
	s := newSearch(e, e.items.Universe(true, links), 1)
	s.lo, s.hi = f, f
	dist := make([]int, e.n)
	firstShatter := true
	witness := func() {
		res.WorstFaults = e.Faults()
		if links {
			res.WorstEdgeFaults = e.EdgeFaults()
		}
	}
	s.visit = func(*worker[*Engine], *best[int]) bool {
		res.Evaluated++
		comps := e.items.Components(e.faults)
		if len(comps) <= 1 {
			res.GraphConnected++
		}
		worst, shattered := e.componentwise(comps, dist)
		if shattered {
			res.Shattered++
			if firstShatter {
				witness()
				firstShatter = false
			}
		}
		if worst > res.WorstComponentDiameter {
			res.WorstComponentDiameter = worst
			if firstShatter {
				witness()
			}
		}
		return true
	}
	s.walk(&best[int]{})
	return res
}
