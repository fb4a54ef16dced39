package experiments

import (
	"errors"
	"fmt"
	"time"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// runE16 is an ablation study: the price of each construction's
// guarantee, measured as route-table size (routed pairs, average route
// length), per-node forwarding state, and build time — side by side
// with the guarantee it buys. The paper's trade-off (stronger bounds
// need bigger concentrators: K = 2t+1 for (6,t) vs K = 6t+9 for (4,t))
// becomes visible as route-table growth.
func runE16(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E16",
		Title:      "Ablation: cost of each construction (routes, state, build time) vs its guarantee",
		PaperClaim: "implicit in Sections 3–6: stronger diameter bounds require larger concentrators and more routes",
		Header:     []string{"graph", "construction", "bound", "t", "pairs", "avg len", "fwd entries", "build"},
	}
	// Each row reports the bound its construction's Build plan carries;
	// the shortest-path baseline (no construction) has none.
	constructions := []struct {
		name     string
		c        core.Construction
		minimalK bool
	}{
		{"shortest-path (baseline)", "", false},
		{"kernel", core.ConstructionKernel, false},
		{"circular (K=2t+1)", core.ConstructionCircular, false},
		{"circular (minimal K)", core.ConstructionCircular, true},
		{"tri-circular (K=6t+9)", core.ConstructionTriCircular, false},
		{"tri-circular (minimal K)", core.ConstructionTriCircular, true},
		{"bipolar-uni", core.ConstructionBipolarUni, false},
		{"bipolar-bi", core.ConstructionBipolarBi, false},
	}
	ws := []struct {
		name string
		g    *graph.Graph
		tol  int
	}{
		{"cycle C45", must(gen.Cycle(45)), 1},
	}
	if scale == Full {
		ws = append(ws, struct {
			name string
			g    *graph.Graph
			tol  int
		}{"CCC(4)", must(gen.CCC(4)), 2})
	}
	for _, w := range ws {
		for _, b := range constructions {
			start := time.Now()
			p := &core.Plan{}
			var err error
			if b.c == "" {
				p.Routing, err = routing.ShortestPath(w.g)
			} else {
				p, err = core.Build(w.g, b.c, core.Options{Tolerance: w.tol, MinimalK: b.minimalK})
			}
			if errors.Is(err, core.ErrNotApplicable) {
				t.AddRow(w.name, b.name, "-", w.tol, "n/a", "-", "-", "-")
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("E16 %s/%s: %w", w.name, b.name, err)
			}
			elapsed := time.Since(start).Round(10 * time.Microsecond)
			st := p.Routing.Stats()
			ft := routing.FailoverFromRouting(p.Routing)
			boundStr := "none"
			if p.Bound > 0 {
				boundStr = fmt.Sprint(p.Bound)
			}
			t.AddRow(w.name, b.name, boundStr, w.tol, st.Pairs,
				fmt.Sprintf("%.2f", st.AvgLen), ft.Entries(), elapsed.String())
		}
	}
	t.Notes = append(t.Notes,
		"fwd entries = total per-node next-hop table entries after compilation",
		"the shortest-path baseline routes every pair (max table size) but carries no tolerance guarantee",
		"build times are indicative single-shot measurements, not statistical benchmarks (see bench_test.go)")
	return t, nil
}
