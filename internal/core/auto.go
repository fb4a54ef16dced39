package core

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Construction identifies one of the paper's routing constructions.
type Construction string

// The constructions the Auto planner chooses among, ordered by the
// strength of their diameter guarantee.
const (
	ConstructionTriCircular Construction = "tri-circular" // (4, t), Theorem 13
	ConstructionBipolarUni  Construction = "bipolar-uni"  // (4, t), Theorem 20
	ConstructionBipolarBi   Construction = "bipolar-bi"   // (5, t), Theorem 23
	ConstructionCircular    Construction = "circular"     // (6, t), Theorem 10
	ConstructionKernel      Construction = "kernel"       // (max{2t,4}, t), Theorem 3
)

// Plan is the result of the Auto planner.
type Plan struct {
	Construction Construction
	Bound        int  // proven diameter bound of the surviving graph
	T            int  // tolerated faults
	Bidirected   bool // whether the routing is bidirectional
	Reason       string
	Routing      *routing.Routing
}

// Auto picks the strongest applicable construction for g, following the
// paper's hierarchy: tri-circular (needs a neighborhood set of 6t+9)
// gives (4,t); the unidirectional bipolar (needs the two-trees property)
// also gives (4,t) but is preferred after tri-circular since it is only
// unidirectional; the circular (needs 2t+1) gives (6,t); the kernel
// (always applicable to non-complete graphs) gives (max{2t,4}, t) and
// (4, ⌊t/2⌋). The plan's Bound is the chosen construction's own, from
// its Info. Pass Options.Tolerance when connectivity is known.
func Auto(g *graph.Graph, opts Options) (*Plan, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, err
	}
	opts.Tolerance = t
	plan := func(c Construction, r *routing.Routing, bound int, reason string) *Plan {
		return &Plan{Construction: c, Bound: bound, T: t, Bidirected: r.Bidirectional(), Reason: reason, Routing: r}
	}
	nset := NeighborhoodSet(g)
	ring := opts
	ring.Concentrator = nset
	if need, _ := triCircularK(t, false); len(nset) >= need {
		if r, info, err := TriCircular(g, ring); err == nil {
			return plan(ConstructionTriCircular, r, info.Bound,
				fmt.Sprintf("neighborhood set of %d >= 6t+9 = %d", len(nset), need)), nil
		}
	}
	if r, info, err := BipolarUnidirectional(g, opts); err == nil {
		return plan(ConstructionBipolarUni, r, info.Bound,
			fmt.Sprintf("two-trees property at roots (%d, %d)", info.R1, info.R2)), nil
	}
	if need := circularK(t, false); len(nset) >= need {
		if r, info, err := Circular(g, ring); err == nil {
			return plan(ConstructionCircular, r, info.Bound,
				fmt.Sprintf("neighborhood set of %d >= 2t+1 = %d", len(nset), need)), nil
		}
	}
	r, info, err := Kernel(g, opts)
	if err != nil {
		return nil, err
	}
	return plan(ConstructionKernel, r, info.Bound,
		"fallback: kernel routing applies to every non-complete (t+1)-connected graph"), nil
}
