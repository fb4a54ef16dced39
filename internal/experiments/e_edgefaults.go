package experiments

import (
	"fmt"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// runE18 measures the literal mixed fault model through the incremental
// engine's edge-fault path. Two quantities per instance:
//
//   - the worst surviving diameter over every mixed node∪edge fault set
//     of total size <= t, found by exhaustive enumeration over the n+m
//     item universe (engine-backed, one toggle per enumeration step);
//   - the kill-dominance check behind the paper's Section 1 reduction:
//     every route traversing edge {u,v} contains both endpoints, so an
//     edge fault must kill a subset of the routes either endpoint fault
//     kills. The table reports the largest per-edge kill count against
//     the smallest endpoint kill count and how many edges kill strictly
//     fewer routes than both endpoints (all of them, on every family).
func runE18(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E18",
		Title:      "Extension: mixed node+edge fault search through the incremental engine",
		PaperClaim: "Section 1: a faulty edge is treated as a faulty endpoint, 'an assumption that can only weaken our results' — an edge fault kills a subset of the routes either endpoint kills",
		Header:     []string{"graph", "n", "m", "t", "worst mixed", "sets", "max edge kills", "min endpoint kills", "strictly fewer", "check"},
	}
	for _, in := range mixedInstances(scale) {
		name := fmt.Sprintf("%s (%s)", in.name, in.c)
		p, err := core.Build(in.g, in.c, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E18 %s: %w", name, err)
		}
		res := eval.MaxDiameterMixed(p.Routing, p.T, eval.Config{Mode: eval.Exhaustive})
		worst := res.MaxDiameter
		if res.Disconnected {
			worst = -1
		}
		maxEdge, minEndpoint, strict, dominated := edgeKillStats(p.Routing, in.g)
		check := "ok"
		if !dominated {
			check = "VIOLATED"
		}
		t.AddRow(name, in.g.N(), in.g.M(), p.T, diamStr(worst), res.Evaluated,
			maxEdge, minEndpoint, fmt.Sprintf("%d/%d", strict, in.g.M()), check)
	}
	t.Notes = append(t.Notes,
		"worst mixed: exhaustive enumeration of all node+edge fault sets of total size <= t (engine-backed; the diameter is over all literally alive nodes, so it may exceed the node-fault bound, which only covers nodes alive under the endpoint mapping — see E14)",
		"kills = routes with at least one fault on them (engine DeadRouteCount); dominance edge <= endpoint is the reduction's mechanism",
		"strictly fewer = edges whose fault kills strictly fewer routes than both endpoint faults")
	return t, nil
}

// edgeKillStats probes every edge and both its endpoints through one
// engine, returning the largest edge kill count, the smallest endpoint
// kill count, how many edges kill strictly fewer routes than both
// endpoints, and whether every edge is dominated by both endpoints.
func edgeKillStats(r *routing.Routing, g *graph.Graph) (maxEdge, minEndpoint, strict int, dominated bool) {
	eng := eval.NewEngine(r)
	dominated = true
	minEndpoint = -1
	for _, ed := range g.Edges() {
		eng.AddEdgeFault(ed[0], ed[1])
		edgeKills := eng.DeadRouteCount()
		eng.RemoveEdgeFault(ed[0], ed[1])
		if edgeKills > maxEdge {
			maxEdge = edgeKills
		}
		strictlyFewer := true
		for _, endpoint := range ed {
			eng.AddFault(endpoint)
			nodeKills := eng.DeadRouteCount()
			eng.RemoveFault(endpoint)
			if minEndpoint < 0 || nodeKills < minEndpoint {
				minEndpoint = nodeKills
			}
			if edgeKills > nodeKills {
				dominated = false
			}
			if edgeKills >= nodeKills {
				strictlyFewer = false
			}
		}
		if strictlyFewer {
			strict++
		}
	}
	if minEndpoint < 0 {
		minEndpoint = 0
	}
	return maxEdge, minEndpoint, strict, dominated
}
