package core

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Construction identifies one of the paper's routing constructions.
type Construction string

// The single-routing constructions Build builds and the Auto planner
// chooses among, ordered by the strength of their diameter guarantee.
const (
	ConstructionTriCircular Construction = "tri-circular" // (4, t), Theorem 13
	ConstructionBipolarUni  Construction = "bipolar-uni"  // (4, t), Theorem 20
	ConstructionBipolarBi   Construction = "bipolar-bi"   // (5, t), Theorem 23
	ConstructionCircular    Construction = "circular"     // (6, t), Theorem 10
	ConstructionKernel      Construction = "kernel"       // (max{2t,4}, t), Theorem 3
)

// Plan is a routing built by name, with the guarantee its construction
// proves: the result of Build and of the Auto planner.
type Plan struct {
	Construction Construction
	Bound        int  // proven diameter bound of the surviving graph
	T            int  // tolerated faults
	Bidirected   bool // whether the routing is bidirectional
	Reason       string
	Routing      *routing.Routing
}

// Build builds construction c on g with its constructor. The plan's
// Bound and T are the ones the construction's Info reports, and its
// Reason names the structure the construction chose: "separator [1 2 3]"
// for the kernel, "K=3" for the circular routings, "roots (0, 5)" for
// the bipolar ones. A constructor's error is returned unchanged.
func Build(g *graph.Graph, c Construction, opts Options) (*Plan, error) {
	p := &Plan{Construction: c}
	var err error
	switch c {
	case ConstructionKernel:
		var info *KernelInfo
		if p.Routing, info, err = Kernel(g, opts); err == nil {
			p.Bound, p.T, p.Reason = info.Bound, info.T, fmt.Sprintf("separator %v", info.Separator)
		}
	case ConstructionCircular:
		var info *CircularInfo
		if p.Routing, info, err = Circular(g, opts); err == nil {
			p.Bound, p.T, p.Reason = info.Bound, info.T, fmt.Sprintf("K=%d", info.K)
		}
	case ConstructionTriCircular:
		var info *TriCircularInfo
		if p.Routing, info, err = TriCircular(g, opts); err == nil {
			p.Bound, p.T, p.Reason = info.Bound, info.T, fmt.Sprintf("K=%d", info.K)
		}
	case ConstructionBipolarUni, ConstructionBipolarBi:
		bipolar := BipolarUnidirectional
		if c == ConstructionBipolarBi {
			bipolar = BipolarBidirectional
		}
		var info *BipolarInfo
		if p.Routing, info, err = bipolar(g, opts); err == nil {
			p.Bound, p.T, p.Reason = info.Bound, info.T, fmt.Sprintf("roots (%d, %d)", info.R1, info.R2)
		}
	default:
		return nil, fmt.Errorf("core: unknown construction %q", c)
	}
	if err != nil {
		return nil, err
	}
	p.Bidirected = p.Routing.Bidirectional()
	return p, nil
}

// Auto picks the strongest applicable construction for g, following the
// paper's hierarchy: tri-circular (needs a neighborhood set of 6t+9)
// gives (4,t); the unidirectional bipolar (needs the two-trees property)
// also gives (4,t) but is preferred after tri-circular since it is only
// unidirectional; the circular (needs 2t+1) gives (6,t); the kernel
// (always applicable to non-complete graphs) gives (max{2t,4}, t) and
// (4, ⌊t/2⌋). The plan is Build's, with Reason saying why the planner
// chose it. Pass Options.Tolerance when connectivity is known.
func Auto(g *graph.Graph, opts Options) (*Plan, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, err
	}
	opts.Tolerance = t
	nset := NeighborhoodSet(g)
	ring := opts
	ring.Concentrator = nset
	if need, _ := triCircularK(t, false); len(nset) >= need {
		if p, err := Build(g, ConstructionTriCircular, ring); err == nil {
			p.Reason = fmt.Sprintf("neighborhood set of %d >= 6t+9 = %d", len(nset), need)
			return p, nil
		}
	}
	if p, err := Build(g, ConstructionBipolarUni, opts); err == nil {
		p.Reason = "two-trees property at " + p.Reason
		return p, nil
	}
	if need := circularK(t, false); len(nset) >= need {
		if p, err := Build(g, ConstructionCircular, ring); err == nil {
			p.Reason = fmt.Sprintf("neighborhood set of %d >= 2t+1 = %d", len(nset), need)
			return p, nil
		}
	}
	p, err := Build(g, ConstructionKernel, opts)
	if err != nil {
		return nil, err
	}
	p.Reason = "fallback: kernel routing applies to every non-complete (t+1)-connected graph"
	return p, nil
}
