package experiments

import (
	"fmt"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/netsim"
	"ftroute/internal/routing"
)

// mixedInstances lists the instances E14, E18 and E19 search under
// mixed faults; Full scale adds CCC(3), C15 and the Petersen graph.
func mixedInstances(scale Scale) []instance {
	is := []instance{
		{"cycle C9", must(gen.Cycle(9)), core.ConstructionCircular},
		{"hypercube Q3", must(gen.Hypercube(3)), core.ConstructionKernel},
	}
	if scale == Full {
		is = append(is,
			instance{"CCC(3)", must(gen.CCC(3)), core.ConstructionKernel},
			instance{"cycle C15", must(gen.Cycle(15)), core.ConstructionCircular},
			instance{"Petersen", gen.Petersen(), core.ConstructionKernel},
		)
	}
	return is
}

// runE14 verifies the paper's edge-fault remark (Section 1): faulty
// edges are handled by treating one endpoint as faulty, "an assumption
// that can only weaken our results". Concretely: if a routing is
// (d, f)-tolerant against node faults, then under any mix of node and
// edge faults of total size <= f the literal surviving graph (routes die
// only if they use a faulty node or traverse a faulty edge) restricted
// to the nodes alive in the endpoint-mapped set still has diameter <= d.
// The experiment enumerates mixed fault sets and reports the worst
// literal diameter.
func runE14(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E14",
		Title:      "Extension: literal edge-fault semantics vs the node-fault bound",
		PaperClaim: "Section 1 remark: treating an edge fault as an endpoint node fault can only weaken the results — so the node-fault bound d covers mixed faults too",
		Header:     []string{"graph", "n", "t", "bound", "measured (mixed)", "sets", "check"},
	}
	for _, in := range mixedInstances(scale) {
		name := fmt.Sprintf("%s (%s)", in.name, in.c)
		p, err := core.Build(in.g, in.c, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", name, err)
		}
		worst, sets, err := worstMixedDiameter(p.Routing, in.g, p.T)
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", name, err)
		}
		t.AddRow(name, in.g.N(), p.T, p.Bound, diamStr(worst), sets, okStr(worst, p.Bound))
	}
	t.Notes = append(t.Notes,
		"mixed fault sets: every combination of k node faults and l edge faults with k+l <= t (edges drawn from the graph's edge set)",
		"diameters are measured over nodes alive under the endpoint mapping, matching the reduction's guarantee")
	return t, nil
}

// worstMixedDiameter enumerates all mixed fault sets of total size <= f
// (node subsets x edge subsets) and returns the worst diameter of the
// literal surviving graph restricted to the endpoint-mapped live nodes.
// The literal surviving graph is maintained incrementally by the eval
// engine — node sets apply as symmetric differences, edge subsets as
// single AddEdgeFault/RemoveEdgeFault toggles around the recursion —
// and the restriction to mapped-alive nodes is a masked engine BFS
// (DiameterExcluding) instead of a materialized Digraph per set.
func worstMixedDiameter(r *routing.Routing, g *graph.Graph, f int) (int, int, error) {
	edges := g.Edges()
	worst, sets := 0, 0
	n := g.N()
	eng := eval.NewEngine(r)
	var nodeSets [][]int
	var pick func(start int, cur []int, left int)
	pick = func(start int, cur []int, left int) {
		nodeSets = append(nodeSets, append([]int(nil), cur...))
		if left == 0 {
			return
		}
		for v := start; v < n; v++ {
			pick(v+1, append(cur, v), left-1)
		}
	}
	pick(0, nil, f)
	for _, nodes := range nodeSets {
		budget := f - len(nodes)
		nf := graph.NewBitset(n)
		for _, v := range nodes {
			nf.Add(v)
		}
		eng.SetFaults(nf)
		var edgePick func(start int, cur []routing.EdgeFault, left int) error
		edgePick = func(start int, cur []routing.EdgeFault, left int) error {
			// Evaluate the current node+edge combination, restricted to
			// nodes alive under the endpoint mapping: the reduction only
			// promises the bound for those.
			sets++
			mapped, err := routing.MapEdgeFaultsToNodes(n, nf, cur)
			if err != nil {
				return err
			}
			if n-mapped.Count() > 1 {
				diam, ok := eng.DiameterExcluding(mapped)
				if !ok {
					worst = -1
				} else if worst >= 0 && diam > worst {
					worst = diam
				}
			}
			if left == 0 {
				return nil
			}
			for i := start; i < len(edges); i++ {
				eng.AddEdgeFault(edges[i][0], edges[i][1])
				err := edgePick(i+1, append(cur, routing.EdgeFault{U: edges[i][0], V: edges[i][1]}), left-1)
				eng.RemoveEdgeFault(edges[i][0], edges[i][1])
				if err != nil {
					return err
				}
			}
			return nil
		}
		if err := edgePick(0, nil, budget); err != nil {
			return 0, 0, err
		}
		if worst == -1 {
			return worst, sets, nil
		}
	}
	return worst, sets, nil
}

// runE15 measures the introduction's motivating claim: with endpoint
// processing dominating link time, total transmission time is roughly
// proportional to the number of routes traversed — which the surviving
// diameter bounds. The experiment runs message workloads at increasing
// fault counts and reports observed route traversals against the bound,
// plus delivery latency percentiles.
func runE15(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E15",
		Title:      "Extension: simulated delivery — route traversals vs the surviving-diameter bound",
		PaperClaim: "Section 1: transmission time is proportional to routes traversed, bounded by diam(R(G,ρ)/F); route-counter broadcast completes within that bound",
		Header:     []string{"graph", "bound", "faults", "max traversals", "p50 latency", "p99 latency", "broadcast rounds", "check"},
	}
	type item struct {
		name  string
		r     *routing.Routing
		bound int
		fail  []int
	}
	var items []item
	{
		g := must(gen.Cycle(45))
		r, info, err := core.TriCircular(g, core.Options{Tolerance: 1})
		if err != nil {
			return nil, err
		}
		items = append(items, item{"cycle C45 (tri-circular)", r, info.Bound, []int{7}})
	}
	if scale == Full {
		g := must(gen.CCC(4))
		r, ci, err := core.Circular(g, core.Options{Tolerance: 2})
		if err != nil {
			return nil, err
		}
		items = append(items, item{"CCC(4) (circular)", r, ci.Bound, []int{5, 33}})

		q := must(gen.Hypercube(4))
		kr, ki, err := core.Kernel(q, core.Options{Tolerance: 3})
		if err != nil {
			return nil, err
		}
		items = append(items, item{"hypercube Q4 (kernel)", kr, ki.Bound, []int{1, 6, 11}})
	}
	msgs := 300
	if scale == Quick {
		msgs = 80
	}
	for _, it := range items {
		for nf := 0; nf <= len(it.fail); nf++ {
			nw := netsim.New(it.r, netsim.Params{HopCost: 1, EndpointCost: 10})
			for _, v := range it.fail[:nf] {
				nw.Fail(v)
			}
			stats, err := nw.RunWorkload(netsim.Workload{Messages: msgs, Seed: int64(nf) + 11}, nil)
			if err != nil {
				return nil, fmt.Errorf("E15 %s: %w", it.name, err)
			}
			diam, ok := nw.SurvivingGraph().Diameter()
			rounds := "-"
			if ok {
				bc, err := nw.Broadcast(pickOrigin(it.fail[:nf], it.r.Graph().N()), diam)
				if err != nil {
					return nil, err
				}
				if bc.AllReached {
					rounds = fmt.Sprint(bc.MaxCounter)
				} else {
					rounds = "incomplete"
				}
			}
			t.AddRow(it.name, it.bound, nf, stats.MaxRoutes, stats.P50, stats.P99, rounds, okStr(stats.MaxRoutes, it.bound))
		}
	}
	t.Notes = append(t.Notes,
		"latency units: 1 per hop, 10 per route endpoint (the paper's endpoint-dominated regime)",
		"broadcast rounds = max route counter needed to reach every surviving node; always <= surviving diameter")
	return t, nil
}

// pickOrigin returns a node not in the failed list.
func pickOrigin(failed []int, n int) int {
	bad := map[int]bool{}
	for _, v := range failed {
		bad[v] = true
	}
	for v := 0; v < n; v++ {
		if !bad[v] {
			return v
		}
	}
	return 0
}
