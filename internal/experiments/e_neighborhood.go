package experiments

import (
	"fmt"
	"math"

	"ftroute/internal/connectivity"
	"ftroute/internal/core"
	"ftroute/internal/gen"
)

// runE6 measures Lemma 15: the greedy neighborhood set always reaches
// ceil(n/(d^2+1)) members.
func runE6(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E6",
		Title:      "Greedy neighborhood set size vs the Lemma 15 bound",
		PaperClaim: "Lemma 15: every graph with max degree d has a neighborhood set of size >= ceil(n/(d^2+1)), found greedily",
		Header:     []string{"graph", "n", "max deg", "bound", "greedy K", "ratio", "valid"},
	}
	ws := []workload{
		{"cycle C30", must(gen.Cycle(30))},
		{"cycle C90", must(gen.Cycle(90))},
		{"torus 5x7", must(gen.Torus(5, 7))},
		{"hypercube Q5", must(gen.Hypercube(5))},
		{"CCC(4)", must(gen.CCC(4))},
		{"Petersen", gen.Petersen()},
	}
	if scale == Full {
		ws = append(ws,
			workload{"cycle C300", must(gen.Cycle(300))},
			workload{"torus 10x10", must(gen.Torus(10, 10))},
			workload{"hypercube Q8", must(gen.Hypercube(8))},
			workload{"CCC(5)", must(gen.CCC(5))},
			workload{"butterfly BF(5)", must(gen.WrappedButterfly(5))},
			workload{"de Bruijn B(2,8)", must(gen.DeBruijn(8))},
		)
		if rr, _, err := gen.RandomRegularConnected(200, 3, 5, 50); err == nil {
			ws = append(ws, workload{"random 3-regular n=200", rr})
		}
		if gn, _, err := gen.GnpConnected(150, 0.025, 3, 80); err == nil {
			ws = append(ws, workload{"G(150, 0.025)", gn})
		}
	}
	for _, w := range ws {
		m := core.NeighborhoodSet(w.g)
		bound := core.GreedyNeighborhoodBound(w.g.N(), w.g.MaxDegree())
		valid := "yes"
		if err := core.CheckNeighborhoodSet(w.g, m); err != nil {
			valid = "NO: " + err.Error()
		}
		ratio := float64(len(m)) / float64(bound)
		t.AddRow(w.name, w.g.N(), w.g.MaxDegree(), bound, len(m), ratio, valid)
	}
	t.Notes = append(t.Notes, "ratio = greedy K / bound; the lemma guarantees ratio >= 1")
	return t, nil
}

// runE7 measures Theorem 16 / Corollary 17: the degree thresholds
// 0.79 n^(1/3) (circular) and 0.46 n^(1/3) (tri-circular) under which
// the constructions are guaranteed to apply.
func runE7(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E7",
		Title:      "Construction feasibility vs the degree thresholds of Corollary 17",
		PaperClaim: "Corollary 17: d <= 0.79 n^(1/3) guarantees a (6,t) circular routing; d <= 0.46 n^(1/3) guarantees a (4,t) tri-circular routing",
		Header:     []string{"n", "d", "0.79·n^(1/3)", "0.46·n^(1/3)", "K greedy", "need circ (2t+1)", "circ ok", "need tri (6t+9)", "tri ok"},
	}
	type cfg struct{ n, d int }
	cfgs := []cfg{{60, 3}, {200, 3}, {200, 4}}
	if scale == Full {
		cfgs = append(cfgs,
			cfg{400, 3}, cfg{400, 4}, cfg{400, 5},
			cfg{800, 3}, cfg{800, 4}, cfg{800, 6},
			cfg{1500, 4}, cfg{1500, 8})
	}
	for _, c := range cfgs {
		g, _, err := gen.RandomRegularConnected(c.n, c.d, int64(c.n*31+c.d), 80)
		if err != nil {
			t.AddRow(c.n, c.d, "-", "-", "-", "-", "n/a", "-", "n/a")
			continue
		}
		// Tolerance: κ of a connected random d-regular graph is d w.h.p.;
		// verify rather than assume.
		tval := c.d - 1
		if ok, kerr := connectivity.IsKConnected(g, c.d); kerr != nil || !ok {
			k, _, kerr2 := connectivity.VertexConnectivity(g)
			if kerr2 != nil || k < 2 {
				t.AddRow(c.n, c.d, "-", "-", "-", "-", "n/a", "-", "n/a")
				continue
			}
			tval = k - 1
		}
		m := core.NeighborhoodSet(g)
		needCirc := 2*tval + 1
		needTri := 6*tval + 9
		circOK := "no"
		if len(m) >= needCirc {
			circOK = "yes"
		}
		triOK := "no"
		if len(m) >= needTri {
			triOK = "yes"
		}
		t.AddRow(c.n, c.d,
			fmt.Sprintf("%.2f", 0.79*math.Cbrt(float64(c.n))),
			fmt.Sprintf("%.2f", 0.46*math.Cbrt(float64(c.n))),
			len(m), needCirc, circOK, needTri, triOK)
	}
	t.Notes = append(t.Notes,
		"the thresholds are sufficient conditions: feasibility at d below the threshold is guaranteed, above it is possible but not promised",
		"workloads are random d-regular graphs (κ verified before use)")
	return t, nil
}
