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
	// Each row reports the bound of its construction's own Info; the
	// shortest-path baseline has none.
	constructions := []struct {
		name     string
		minimalK bool
		make     func(g *graph.Graph, o core.Options) (*routing.Routing, int, error)
	}{
		{"shortest-path (baseline)", false, func(g *graph.Graph, _ core.Options) (*routing.Routing, int, error) {
			r, err := routing.ShortestPath(g)
			return r, 0, err
		}},
		{"kernel", false, withBound(core.Kernel, func(i *core.KernelInfo) int { return i.Bound })},
		{"circular (K=2t+1)", false, withBound(core.Circular, func(i *core.CircularInfo) int { return i.Bound })},
		{"circular (minimal K)", true, withBound(core.Circular, func(i *core.CircularInfo) int { return i.Bound })},
		{"tri-circular (K=6t+9)", false, withBound(core.TriCircular, func(i *core.TriCircularInfo) int { return i.Bound })},
		{"tri-circular (minimal K)", true, withBound(core.TriCircular, func(i *core.TriCircularInfo) int { return i.Bound })},
		{"bipolar-uni", false, withBound(core.BipolarUnidirectional, func(i *core.BipolarInfo) int { return i.Bound })},
		{"bipolar-bi", false, withBound(core.BipolarBidirectional, func(i *core.BipolarInfo) int { return i.Bound })},
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
			r, bound, err := b.make(w.g, core.Options{Tolerance: w.tol, MinimalK: b.minimalK})
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
			if bound > 0 {
				boundStr = fmt.Sprint(bound)
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

// withBound adapts a construction to E16's row shape: its routing and
// the bound its Info reports.
func withBound[I any](build func(*graph.Graph, core.Options) (*routing.Routing, *I, error), bound func(*I) int) func(*graph.Graph, core.Options) (*routing.Routing, int, error) {
	return func(g *graph.Graph, o core.Options) (*routing.Routing, int, error) {
		r, inf, err := build(g, o)
		if err != nil {
			return nil, 0, err
		}
		return r, bound(inf), nil
	}
}
