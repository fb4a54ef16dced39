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

func init() {
	register("E16", runE16)
}

// runE16 is the ablation study DESIGN.md calls out: the price of each
// construction's guarantee, measured as route-table size (routed pairs,
// average route length), per-node forwarding state, and build time —
// side by side with the guarantee it buys. The paper's trade-off
// (stronger bounds need bigger concentrators: K = 2t+1 for (6,t) vs
// K = 6t+9 for (4,t)) becomes visible as route-table growth.
func runE16(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E16",
		Title:      "Ablation: cost of each construction (routes, state, build time) vs its guarantee",
		PaperClaim: "implicit in Sections 3–6: stronger diameter bounds require larger concentrators and more routes",
		Header:     []string{"graph", "construction", "bound", "t", "pairs", "avg len", "fwd entries", "build"},
	}
	type buildFn struct {
		name  string
		bound func(tol int) int
		make  func(g *graph.Graph, tol int) (*routing.Routing, error)
	}
	builders := []buildFn{
		{"shortest-path (baseline)", func(int) int { return -1 }, func(g *graph.Graph, _ int) (*routing.Routing, error) {
			return routing.ShortestPath(g)
		}},
		{"kernel", func(tol int) int {
			b := 2 * tol
			if b < 4 {
				b = 4
			}
			return b
		}, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.Kernel(g, core.Options{Tolerance: tol})
			return r, err
		}},
		{"circular (K=2t+1)", func(int) int { return 6 }, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.Circular(g, core.Options{Tolerance: tol})
			return r, err
		}},
		{"circular (minimal K)", func(int) int { return 6 }, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.Circular(g, core.Options{Tolerance: tol, MinimalK: true})
			return r, err
		}},
		{"tri-circular (K=6t+9)", func(int) int { return 4 }, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.TriCircular(g, core.Options{Tolerance: tol})
			return r, err
		}},
		{"tri-circular (minimal K)", func(int) int { return 5 }, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.TriCircular(g, core.Options{Tolerance: tol, MinimalK: true})
			return r, err
		}},
		{"bipolar-uni", func(int) int { return 4 }, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.BipolarUnidirectional(g, core.Options{Tolerance: tol})
			return r, err
		}},
		{"bipolar-bi", func(int) int { return 5 }, func(g *graph.Graph, tol int) (*routing.Routing, error) {
			r, _, err := core.BipolarBidirectional(g, core.Options{Tolerance: tol})
			return r, err
		}},
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
		for _, b := range builders {
			start := time.Now()
			r, err := b.make(w.g, w.tol)
			if errors.Is(err, core.ErrNotApplicable) {
				t.AddRow(w.name, b.name, "-", w.tol, "n/a", "-", "-", "-")
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("E16 %s/%s: %w", w.name, b.name, err)
			}
			elapsed := time.Since(start).Round(10 * time.Microsecond)
			st := r.Stats()
			ft := routing.FailoverFromRouting(r)
			boundStr := "none"
			if bnd := b.bound(w.tol); bnd > 0 {
				boundStr = fmt.Sprint(bnd)
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
