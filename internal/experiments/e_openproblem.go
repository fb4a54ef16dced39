package experiments

import (
	"fmt"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
)

// runE17 probes the paper's Open Problem 3 empirically: beyond the
// designed tolerance t, do the constructions stay "well behaved" —
// i.e., within each connected component of G−F, does the surviving
// route graph stay connected with small diameter? For each fault count
// t+1, t+2 the experiment enumerates every fault set and reports how
// often components shatter (route-graph disconnection inside a
// graph-connected component) and the worst componentwise diameter.
func runE17(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E17",
		Title:      "Extension (Open Problem 3): behavior beyond the designed tolerance",
		PaperClaim: "§7(3) asks whether routings remain well behaved when |F| > t; no answer is proven in the paper — these are empirical observations",
		Header:     []string{"graph", "construction", "t", "F", "fault sets", "G−F connected", "shattered", "worst comp diam"},
	}
	is := []instance{
		{"cycle C12", must(gen.Cycle(12)), core.ConstructionCircular},
		{"hypercube Q3", must(gen.Hypercube(3)), core.ConstructionKernel},
	}
	if scale == Full {
		is = append(is,
			instance{"cycle C16", must(gen.Cycle(16)), core.ConstructionCircular},
			instance{"CCC(3)", must(gen.CCC(3)), core.ConstructionKernel},
			instance{"Petersen", gen.Petersen(), core.ConstructionKernel},
		)
	}
	for _, in := range is {
		p, err := core.Build(in.g, in.c, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E17 %s: %w", in.name, err)
		}
		for extra := 1; extra <= 2; extra++ {
			f := p.T + extra
			res := eval.BeyondTolerance(p.Routing, f)
			t.AddRow(in.name, string(in.c), p.T, f, res.Evaluated, res.GraphConnected,
				res.Shattered, res.WorstComponentDiameter)
		}
	}
	t.Notes = append(t.Notes,
		"shattered = fault sets leaving some pair graph-connected in G−F but with no surviving route path between them",
		"worst comp diam = worst surviving diameter measured inside components of G−F (shattered pairs excluded)",
		"a 'well behaved' routing in the sense of §7(3) would show shattered = 0 and small componentwise diameters")
	return t, nil
}
