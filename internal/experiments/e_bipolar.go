package experiments

import (
	"errors"
	"fmt"
	"math"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// bipolarWorkloads are shared between E8 and E9.
func bipolarWorkloads(scale Scale) []workload {
	ws := []workload{
		{"cycle C10", must(gen.Cycle(10))},
		{"cycle C13", must(gen.Cycle(13))},
	}
	if scale == Full {
		ws = append(ws, workload{"cycle C20", must(gen.Cycle(20))})
		if rr, _, err := gen.RandomRegularConnected(40, 3, 29, 100); err == nil {
			ws = append(ws, workload{"random 3-regular n=40", rr})
		}
		if rr, _, err := gen.RandomRegularConnected(100, 3, 31, 100); err == nil {
			ws = append(ws, workload{"random 3-regular n=100", rr})
		}
	}
	return ws
}

func runBipolar(id, title string, bound int, build func(*graph.Graph, core.Options) (evalRouting, *core.BipolarInfo, error), scale Scale) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"graph", "n", "t", "roots", "bound", "measured", "method", "check"},
	}
	for _, w := range bipolarWorkloads(scale) {
		opts, err := regularOpts(w, core.Options{})
		if err != nil {
			return nil, err
		}
		r, info, err := build(w.g, opts)
		if errors.Is(err, core.ErrNotApplicable) {
			t.AddRow(w.name, w.g.N(), "-", "-", bound, "n/a", "-", "skipped: no two-trees pair")
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", id, w.name, err)
		}
		measured, method := maxEval(r, info.T, 3000)
		roots := fmt.Sprintf("(%d,%d)", info.R1, info.R2)
		t.AddRow(w.name, w.g.N(), info.T, roots, bound, diamStr(measured), method, okStr(measured, bound))
	}
	return t, nil
}

// evalRouting is the common shape of the two bipolar constructors'
// routing result for runBipolar.
type evalRouting = eval.RouteSource

// runE8 measures Theorem 20 / Figure 3: the unidirectional bipolar
// routing is (4, t)-tolerant on two-trees graphs.
func runE8(scale Scale) (*Table, error) {
	t, err := runBipolar("E8",
		"Unidirectional bipolar routing (Figure 3) worst-case surviving diameter at |F| <= t",
		4,
		func(g *graph.Graph, o core.Options) (evalRouting, *core.BipolarInfo, error) {
			return core.BipolarUnidirectional(g, o)
		}, scale)
	if err != nil {
		return nil, err
	}
	t.PaperClaim = "Theorem 20: (4, t)-tolerant unidirectional bipolar routing on any graph with the two-trees property"
	return t, nil
}

// runE9 measures Theorem 23: the bidirectional bipolar routing is
// (5, t)-tolerant on two-trees graphs.
func runE9(scale Scale) (*Table, error) {
	t, err := runBipolar("E9",
		"Bidirectional bipolar routing worst-case surviving diameter at |F| <= t",
		5,
		func(g *graph.Graph, o core.Options) (evalRouting, *core.BipolarInfo, error) {
			return core.BipolarBidirectional(g, o)
		}, scale)
	if err != nil {
		return nil, err
	}
	t.PaperClaim = "Theorem 23: (5, t)-tolerant bidirectional bipolar routing on any graph with the two-trees property"
	return t, nil
}

// runE10 measures Lemma 24 / Theorem 25: sparse random graphs have the
// two-trees property with probability 1 - O(n^-δ).
func runE10(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E10",
		Title:      "Fraction of G(n,p) instances with the two-trees property, p = n^ε/n",
		PaperClaim: "Lemma 24/Theorem 25: for p <= c·n^ε/n, ε < 1/4, Prob(two-trees) >= 1 - O(n^(-δ)), δ = 1-4ε",
		Header:     []string{"n", "ε", "p", "avg degree", "trials", "with two-trees", "fraction"},
	}
	type cfg struct {
		n      int
		eps    float64
		trials int
	}
	cfgs := []cfg{{50, 0.10, 20}, {100, 0.10, 20}, {100, 0.25, 20}}
	if scale == Full {
		cfgs = append(cfgs,
			cfg{200, 0.10, 40}, cfg{200, 0.25, 40},
			cfg{400, 0.10, 40}, cfg{400, 0.25, 40},
			cfg{800, 0.10, 25}, cfg{800, 0.25, 25},
		)
	}
	for _, c := range cfgs {
		p := math.Pow(float64(c.n), c.eps) / float64(c.n)
		hits := 0
		avgDeg := 0.0
		for i := 0; i < c.trials; i++ {
			g, err := gen.Gnp(c.n, p, int64(c.n)*1000+int64(i))
			if err != nil {
				return nil, err
			}
			avgDeg += g.AverageDegree()
			if core.HasTwoTrees(g) {
				hits++
			}
		}
		avgDeg /= float64(c.trials)
		t.AddRow(c.n, fmt.Sprintf("%.2f", c.eps), fmt.Sprintf("%.5f", p),
			fmt.Sprintf("%.2f", avgDeg), c.trials, hits,
			fmt.Sprintf("%.2f", float64(hits)/float64(c.trials)))
	}
	t.Notes = append(t.Notes, "the paper predicts the fraction tends to 1 as n grows for fixed ε < 1/4")
	return t, nil
}
