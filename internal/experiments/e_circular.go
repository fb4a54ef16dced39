package experiments

import (
	"errors"
	"fmt"

	"ftroute/internal/connectivity"
	"ftroute/internal/core"
	"ftroute/internal/gen"
)

// runE3 measures Theorem 10 / Figure 1: circular routings with
// K = 2t+1 keep the surviving diameter at most 6 for |F| <= t.
func runE3(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E3",
		Title:      "Circular routing (Figure 1) worst-case surviving diameter at |F| <= t",
		PaperClaim: "Theorem 10: (6, t)-tolerant bidirectional circular routing when a neighborhood set of size 2t+1 exists",
		Header:     []string{"graph", "n", "t", "K", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"cycle C9", must(gen.Cycle(9))},
		{"cycle C12", must(gen.Cycle(12))},
	}
	if scale == Full {
		ws = append(ws,
			workload{"cycle C17", must(gen.Cycle(17))},
			workload{"cycle C24", must(gen.Cycle(24))},
			workload{"CCC(4)", must(gen.CCC(4))},
			workload{"torus 7x7", must(gen.Torus(7, 7))},
		)
	}
	for _, w := range ws {
		r, info, err := core.Circular(w.g, core.Options{})
		if errors.Is(err, core.ErrNotApplicable) {
			t.AddRow(w.name, w.g.N(), "-", "-", 6, "n/a", "-", "skipped: "+err.Error())
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("E3 %s: %w", w.name, err)
		}
		measured, method := maxEval(r, info.T, 3000)
		t.AddRow(w.name, w.g.N(), info.T, info.K, info.Bound, diamStr(measured), method, okStr(measured, info.Bound))
	}
	if scale == Full {
		// Hypercube Q7 via the Hamming-code concentrator: the greedy
		// bound of Lemma 15 is too weak for hypercubes, but a perfect
		// code provides 16 >= 2t+1 = 13 concentrator nodes.
		q7 := must(gen.Hypercube(7))
		code, err := core.HammingNeighborhoodSet(7)
		if err != nil {
			return nil, err
		}
		r, info, err := core.Circular(q7, core.Options{Tolerance: 6, Concentrator: code})
		if err != nil {
			return nil, fmt.Errorf("E3 Q7: %w", err)
		}
		measured, method := maxEval(r, info.T, 1)
		t.AddRow("hypercube Q7 (Hamming code)", q7.N(), info.T, info.K, info.Bound, diamStr(measured), method, okStr(measured, info.Bound))
		t.Notes = append(t.Notes, "Q7 uses the perfect Hamming(7,4) code as concentrator; greedy Lemma 15 alone cannot reach K=13 at n=128")
	}
	return t, nil
}

// runE4 measures Theorem 13 / Figure 2: tri-circular routings with
// K = 6t+9 keep the surviving diameter at most 4 for |F| <= t.
func runE4(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E4",
		Title:      "Tri-circular routing (Figure 2) worst-case surviving diameter at |F| <= t",
		PaperClaim: "Theorem 13: (4, t)-tolerant bidirectional tri-circular routing when a neighborhood set of size 6t+9 exists",
		Header:     []string{"graph", "n", "t", "K", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"cycle C45", must(gen.Cycle(45))},
	}
	if scale == Full {
		ws = append(ws, workload{"cycle C60", must(gen.Cycle(60))})
		if rr, _, err := gen.RandomRegularConnected(240, 3, 11, 60); err == nil {
			ws = append(ws, workload{"random 3-regular n=240", rr})
		}
	}
	for _, w := range ws {
		opts, err := regularOpts(w, core.Options{})
		if err != nil {
			return nil, err
		}
		r, info, err := core.TriCircular(w.g, opts)
		if errors.Is(err, core.ErrNotApplicable) {
			t.AddRow(w.name, w.g.N(), "-", "-", 4, "n/a", "-", "skipped: "+err.Error())
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("E4 %s: %w", w.name, err)
		}
		measured, method := maxEval(r, info.T, 3000)
		t.AddRow(w.name, w.g.N(), info.T, info.K, info.Bound, diamStr(measured), method, okStr(measured, info.Bound))
	}
	return t, nil
}

// runE5 measures Remark 14: the smaller tri-circular routing
// (K = 3t+3 / 3t+6) is (5, t)-tolerant.
func runE5(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E5",
		Title:      "Small tri-circular routing worst-case surviving diameter at |F| <= t",
		PaperClaim: "Remark 14: (5, t)-tolerant tri-circular routing from a neighborhood set of size 3t+3 (even t) / 3t+6 (odd t)",
		Header:     []string{"graph", "n", "t", "K", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"cycle C27", must(gen.Cycle(27))},
	}
	if scale == Full {
		ws = append(ws, workload{"cycle C36", must(gen.Cycle(36))})
		if rr, _, err := gen.RandomRegularConnected(130, 3, 13, 60); err == nil {
			ws = append(ws, workload{"random 3-regular n=130", rr})
		}
	}
	for _, w := range ws {
		opts, err := regularOpts(w, core.Options{MinimalK: true})
		if err != nil {
			return nil, err
		}
		r, info, err := core.TriCircular(w.g, opts)
		if errors.Is(err, core.ErrNotApplicable) {
			t.AddRow(w.name, w.g.N(), "-", "-", 5, "n/a", "-", "skipped: "+err.Error())
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("E5 %s: %w", w.name, err)
		}
		measured, method := maxEval(r, info.T, 3000)
		t.AddRow(w.name, w.g.N(), info.T, info.K, info.Bound, diamStr(measured), method, okStr(measured, info.Bound))
	}
	return t, nil
}

// regularOpts fills Options.Tolerance for the large random 3-regular
// workloads after verifying 3-connectivity, so the expensive exact κ
// computation is skipped without assuming the pairing model delivered a
// 3-connected instance.
func regularOpts(w workload, opts core.Options) (core.Options, error) {
	if w.g.MaxDegree() != 3 || w.g.N() < 100 {
		return opts, nil
	}
	ok, err := connectivity.IsKConnected(w.g, 3)
	if err != nil {
		return opts, err
	}
	if ok {
		opts.Tolerance = 2
	}
	return opts, nil
}
