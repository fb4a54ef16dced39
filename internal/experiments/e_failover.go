package experiments

import (
	"fmt"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/routing"
)

// runE19 measures static-failover forwarding under adversarial faults:
// the paper's routings compiled to rank-1 failover tables (no backups)
// against the same routings reinforced Lenzen–Medina-style with
// link-disjoint backup routes. For each instance the worst fault set of
// the given budget is searched exhaustively against both table sets —
// first over link cuts only, then over the paper's literal mixed
// universe of failed nodes and cut links combined — and the reinforced
// tables are additionally evaluated under the plain tables' worst link
// cut, the direct apples-to-apples comparison. Disrupted pairs split
// into blackholes (no live entry) and forwarding loops, the failure
// taxonomy of Chiesa et al.'s static failover model; under mixed faults
// pairs whose endpoint is failed are skipped, not disrupted.
func runE19(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E19",
		Title:      "Extension: static-failover tables under adversarial link cuts and mixed node+link faults (plain vs reinforced)",
		PaperClaim: "the paper evaluates routings at the route-graph level; at the forwarding-table level, backup routes (Section 6 multiroutings / Lenzen–Medina reinforcement) are what survives adversarial link cutting (Chiesa et al.)",
		Header:     []string{"graph", "n", "m", "routing", "budget", "backups", "plain worst", "reinforced worst", "reinf @ plain cut", "plain worst mixed", "reinf worst mixed", "sets"},
	}
	const budget, backups = 2, 2
	for _, in := range mixedInstances(scale) {
		p, err := core.Build(in.g, in.c, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E19 %s: %w", in.name, err)
		}
		plain := routing.FailoverFromRouting(p.Routing)
		m, err := routing.Reinforce(p.Routing, backups)
		if err != nil {
			return nil, fmt.Errorf("E19 %s: reinforce: %w", in.name, err)
		}
		reinforced := routing.CompileFailover(m)
		// The parallel engine search is bit-for-bit identical to the
		// sequential and legacy paths, so the table stays stable.
		cfg := eval.Config{Mode: eval.Exhaustive}
		pw := eval.WorstLinkCutsParallel(plain, in.g, budget, cfg, 0)
		rw := eval.WorstLinkCutsParallel(reinforced, in.g, budget, cfg, 0)
		same := eval.EvaluateMixedFaults(reinforced, nil, pw.WorstCuts)
		pm := eval.WorstMixedFaultsParallel(plain, in.g, budget, cfg, 0)
		rm := eval.WorstMixedFaultsParallel(reinforced, in.g, budget, cfg, 0)
		t.AddRow(in.name, in.g.N(), in.g.M(), string(in.c), budget, backups,
			cutCell(pw.Stats), cutCell(rw.Stats), cutCell(same),
			mixedCell(pm.Stats), mixedCell(rm.Stats),
			pw.Evaluated+rw.Evaluated+pm.Evaluated+rm.Evaluated)
	}
	t.Notes = append(t.Notes,
		"plain = rank-1 tables from the routing itself; reinforced = the routing plus up to 2 link-disjoint backup routes per pair, compiled to ranked failover tables",
		"worst = cut set of at most `budget` links maximizing disrupted pairs, searched exhaustively; cells show disrupted/pairs (bh=blackhole, loop=forwarding loop)",
		"reinf @ plain cut = the reinforced tables evaluated under the plain tables' worst cut set",
		"worst mixed = fault set of at most `budget` failed nodes plus cut links combined, searched exhaustively over the n+m item universe; pairs with a failed endpoint are skipped (skip), not disrupted",
		"kernel routings route only a subset of pairs (the paper stitches route sequences); tables forward per pair, so only covered pairs are walked")
	return t, nil
}

// cutCell renders packet-level cut stats as disrupted/pairs (bh, loop).
func cutCell(s eval.CutStats) string {
	return fmt.Sprintf("%d/%d (bh %d, loop %d)", s.Disrupted(), s.Pairs, s.Blackhole, s.Loop)
}

// mixedCell is cutCell plus the skipped count: pairs not walked because
// the adversary failed one of their endpoints.
func mixedCell(s eval.CutStats) string {
	return fmt.Sprintf("%d/%d (bh %d, loop %d, skip %d)", s.Disrupted(), s.Pairs, s.Blackhole, s.Loop, s.Skipped)
}
