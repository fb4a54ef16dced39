package experiments

import (
	"fmt"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

// runE11 measures the three multirouting observations of Section 6:
// (1) t+1 routes per pair give surviving diameter 1;
// (2) kernel + multiroutes inside the concentrator give 3;
// (3) at most two routes per pair around one separating set give a
// bipolar-like bound (4, measured).
func runE11(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E11",
		Title:      "Multiroutings (Section 6): worst-case surviving diameter at |F| <= t",
		PaperClaim: "Section 6: (1,t) with t+1 routes/pair; (3,t) with multiroutes inside the concentrator; bipolar-like with 2 routes/pair",
		Header:     []string{"graph", "n", "t", "variant", "routes/pair", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"hypercube Q3", must(gen.Hypercube(3))},
		{"CCC(3)", must(gen.CCC(3))},
	}
	if scale == Full {
		ws = append(ws,
			workload{"cycle C12", must(gen.Cycle(12))},
			workload{"Petersen", gen.Petersen()},
			workload{"hypercube Q4", must(gen.Hypercube(4))},
		)
	}
	for _, w := range ws {
		full, fi, err := core.FullMultirouting(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11 full %s: %w", w.name, err)
		}
		measured, method := maxEval(full, fi.T, 3000)
		t.AddRow(w.name, w.g.N(), fi.T, "full (§6.1)", fi.Limit, fi.Bound, diamStr(measured), method, okStr(measured, fi.Bound))

		km, ki, err := core.KernelMultirouting(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11 kernel-multi %s: %w", w.name, err)
		}
		measured, method = maxEval(km, ki.T, 3000)
		t.AddRow(w.name, w.g.N(), ki.T, "kernel+concentrator (§6.2)", ki.Limit, ki.Bound, diamStr(measured), method, okStr(measured, ki.Bound))

		tr, ti, err := core.TwoRouteMultirouting(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E11 two-route %s: %w", w.name, err)
		}
		measured, method = maxEval(tr, ti.T, 3000)
		t.AddRow(w.name, w.g.N(), ti.T, "two-route (§6.3)", ti.Limit, ti.Bound, diamStr(measured), method, okStr(measured, ti.Bound))
	}
	t.Notes = append(t.Notes, "the paper leaves the two-route bound implicit (\"similar to the bipolar routing\"); 4 is the bipolar-argument bound, verified empirically here")
	return t, nil
}

// runE12 measures the "changing the network" variant of Section 6:
// making the concentrator a clique buys a (3, t)-tolerant routing for
// at most t(t+1)/2 added links.
func runE12(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E12",
		Title:      "Clique-augmented kernel routing (Section 6): surviving diameter and added links",
		PaperClaim: "Section 6: adding <= t(t+1)/2 links inside the concentrator yields a (3, t)-tolerant routing",
		Header:     []string{"graph", "n", "t", "links added", "max allowed", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"hypercube Q3", must(gen.Hypercube(3))},
		{"CCC(3)", must(gen.CCC(3))},
	}
	if scale == Full {
		ws = append(ws,
			workload{"hypercube Q4", must(gen.Hypercube(4))},
			workload{"icosahedron", gen.Icosahedron()},
			workload{"Harary H(4,12)", must(gen.Harary(4, 12))},
		)
	}
	for _, w := range ws {
		_, r, info, err := core.CliqueAugmentedKernel(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E12 %s: %w", w.name, err)
		}
		measured, method := maxEval(r, info.T, 3000)
		maxAdd := info.T * (info.T + 1) / 2
		t.AddRow(w.name, w.g.N(), info.T, len(info.AddedEdges), maxAdd, info.Bound, diamStr(measured), method, okStr(measured, info.Bound))
	}
	return t, nil
}

// runE13 compares the paper's constructions against the fixed
// shortest-path routing baseline (the Feldman 1985 setting): same graph,
// same fault budget, worst-case surviving diameter.
func runE13(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E13",
		Title:      "Designed routings vs shortest-path baseline: worst-case surviving diameter at |F| <= t",
		PaperClaim: "Motivation/§1: designed routings bound the surviving diameter by a constant; shortest-path routings offer no such guarantee",
		Header:     []string{"graph", "n", "t", "shortest-path", "kernel", "best construction", "best bound"},
	}
	ws := []workload{
		{"cycle C12", must(gen.Cycle(12))},
		{"CCC(3)", must(gen.CCC(3))},
		{"wheel W25", must(gen.Wheel(25))},
	}
	if scale == Full {
		ws = append(ws,
			workload{"cycle C45", must(gen.Cycle(45))},
			workload{"hypercube Q4", must(gen.Hypercube(4))},
			workload{"grid 4x4", must(gen.Grid(4, 4))},
			workload{"wheel W49", must(gen.Wheel(49))},
		)
	}
	for _, w := range ws {
		sp, err := routing.ShortestPath(w.g)
		if err != nil {
			return nil, err
		}
		kr, ki, err := core.Kernel(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E13 kernel %s: %w", w.name, err)
		}
		plan, err := core.Auto(w.g, core.Options{Tolerance: ki.T})
		if err != nil {
			return nil, fmt.Errorf("E13 auto %s: %w", w.name, err)
		}
		spD, _ := maxEval(sp, ki.T, 3000)
		krD, _ := maxEval(kr, ki.T, 3000)
		bestD, _ := maxEval(plan.Routing, ki.T, 3000)
		t.AddRow(w.name, w.g.N(), ki.T, diamStr(spD), diamStr(krD),
			fmt.Sprintf("%s: %s", plan.Construction, diamStr(bestD)), plan.Bound)
	}
	t.Notes = append(t.Notes,
		"inf = some fault set disconnects the surviving route graph even though the underlying graph stays connected",
		"wheels are the canonical bad case for shortest-path routing: long-range routes concentrate on the hub, so hub+rim faults leave only rim-local routes and the surviving diameter grows with n, while the kernel bound stays max{2t,4}",
		"on highly symmetric families (cycles, hypercubes) shortest-path routing looks fine empirically — the paper's point is that it carries no guarantee, not that it always loses")
	return t, nil
}
