package main

import (
	"fmt"
	"time"

	"ftroute/internal/eval"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// probe measures unit costs once, after the timed loop, on the last
// query's routing: one compile, one toggle and one score of each engine,
// the routing layer's table builds, and the 2-worker speedups. They
// explain the search calls' times: a search compiles once, then toggles
// and scores once per fault set. It fails when a serial and a parallel
// path disagree.
func probe(w workload, g *graph.Graph, rt *routing.Routing, put func(name, unit string, v float64)) error {
	n, edges := g.N(), g.Edges()

	var e *eval.Engine
	put("eval.NewEngine.s", "s", perCall(func() { e = eval.NewEngine(rt) }))
	put("eval.Engine.node_toggle_us", "us", perCall(func() {
		for v := 0; v < n; v++ {
			e.AddFault(v)
			e.RemoveFault(v)
		}
	})/float64(n)*1e6)
	put("eval.Engine.edge_toggle_us", "us", perCall(func() {
		for _, ed := range edges {
			e.AddEdgeFault(ed[0], ed[1])
			e.RemoveEdgeFault(ed[0], ed[1])
		}
	})/float64(len(edges))*1e6)
	var d1, d2 int
	var c1, c2 bool
	serial := perCall(func() { d1, c1 = e.Diameter() })
	parallel := perCall(func() { d2, c2 = e.DiameterParallel(2) })
	if d1 != d2 || c1 != c2 {
		return fmt.Errorf("Diameter gives (%d, %v), DiameterParallel(2) gives (%d, %v)", d1, c1, d2, c2)
	}
	put("eval.Engine.Diameter_ms", "ms", serial*1e3)
	put("eval.Engine.diameter_speedup", "x", serial/parallel)

	cfg := eval.Config{Mode: eval.Exhaustive, Bounded: true}
	var rs, rp eval.MixedResult
	serial = perCall(func() { rs = eval.MaxDiameterMixed(rt, w.probeF, cfg) })
	parallel = perCall(func() { rp = eval.MaxDiameterMixedParallel(rt, w.probeF, cfg, 2) })
	if rs.String() != rp.String() {
		return fmt.Errorf("MaxDiameterMixed gives %v, MaxDiameterMixedParallel(2) gives %v", rs, rp)
	}
	put("eval.mixed_search_speedup", "x", serial/parallel)

	var (
		m          *routing.MultiRouting
		reinforced *routing.FailoverTables
		err        error
	)
	put("routing.FailoverFromRouting.s", "s", perCall(func() { routing.FailoverFromRouting(rt) }))
	put("routing.Reinforce.s", "s", perCall(func() { m, err = routing.Reinforce(rt, backups) }))
	if err != nil {
		return err
	}
	put("routing.CompileFailover.s", "s", perCall(func() { reinforced = routing.CompileFailover(m) }))
	var we *eval.WalkEngine
	put("eval.NewWalkEngine.s", "s", perCall(func() { we = eval.NewWalkEngine(reinforced, g) }))
	put("eval.WalkEngine.cut_toggle_us", "us", perCall(func() {
		for _, ed := range edges {
			we.AddLinkCut(ed[0], ed[1])
			we.RemoveLinkCut(ed[0], ed[1])
		}
	})/float64(len(edges))*1e6)
	put("eval.WalkEngine.node_toggle_us", "us", perCall(func() {
		for v := 0; v < n; v++ {
			we.AddNodeFault(v)
			we.RemoveNodeFault(v)
		}
	})/float64(n)*1e6)

	put("eval.pairs", "count", float64(rt.Stats().Pairs))
	put("routing.entries", "count", float64(reinforced.Entries()))
	put("eval.WalkEngine.pairs", "count", float64(we.PairCount()))
	return nil
}

// probeWindow is how long perCall repeats a call; the tests shorten it.
var probeWindow = 200 * time.Millisecond

// perCall runs fn until it has run for probeWindow, at least once, and
// returns the median seconds of one call.
func perCall(fn func()) float64 {
	var times []float64
	for start := time.Now(); len(times) == 0 || time.Since(start) < probeWindow; {
		t0 := time.Now()
		fn()
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times)
}
