package routing

import (
	"fmt"

	"ftroute/internal/graph"
)

// EdgeFault identifies an undirected failed link {U, V}.
type EdgeFault struct {
	U, V int
}

// Normalize returns the fault with its endpoints ordered U <= V, the
// canonical form under which two faults denote the same undirected link
// iff they are equal.
func (e EdgeFault) Normalize() EdgeFault {
	if e.U > e.V {
		return EdgeFault{U: e.V, V: e.U}
	}
	return e
}

// The paper handles edge faults by "assuming that one of the endpoints
// of the faulty edge is a faulty node, an assumption that can only
// weaken our results" (Section 1). This file provides both semantics:
//
//   - SurvivingGraphMixed: the literal model — a route is affected if it
//     contains a faulty node or traverses a faulty edge. Faulty edges
//     kill strictly fewer routes than either endpoint would, so any
//     (d, f)-tolerant routing remains within its bound under mixed
//     fault sets of total size f in which each edge fault is counted
//     like a node fault (experiment E14 verifies this empirically).
//   - MapEdgeFaultsToNodes: the paper's reduction, for callers that want
//     to reuse node-fault machinery unchanged.
//
// Fault-set searches over the literal model should not call
// SurvivingGraphMixed per set: package eval's Engine maintains the
// mixed surviving graph incrementally (AddEdgeFault/RemoveEdgeFault)
// and its MaxDiameterMixed family searches mixed fault sets orders of
// magnitude faster, with this rebuild path as the bit-for-bit
// reference. MultiRouting carries the same method for the Section 6
// multiroutings. Either container's SurvivingGraph(F) is
// SurvivingGraphMixed(F, nil), and both rebuild loops share one setup
// (survivingBase) and one route predicate (routeSurvives).

// SurvivingGraphMixed computes the surviving route graph under both
// node faults (may be nil) and edge faults: an arc u→v survives iff the
// route exists, contains no faulty node, and traverses no faulty edge.
func (r *Routing) SurvivingGraphMixed(nodeFaults *graph.Bitset, edgeFaults []EdgeFault) *graph.Digraph {
	d, bad := survivingBase(r.g.N(), nodeFaults, edgeFaults)
	for k, p := range r.routes {
		if routeSurvives(p, nodeFaults, bad) {
			d.AddArc(int(k.u), int(k.v))
		}
	}
	return d
}

// survivingBase is the setup both containers' rebuilds share: a digraph
// over n nodes with the faulty nodes in 0..n-1 disabled (a fault outside
// that range lies on no route), and the faulty links normalized into a
// set that is nil when there are none.
func survivingBase(n int, nodeFaults *graph.Bitset, edgeFaults []EdgeFault) (*graph.Digraph, map[EdgeFault]bool) {
	d := graph.NewDigraph(n)
	if nodeFaults != nil {
		for _, v := range nodeFaults.Elements() {
			if v >= n {
				break
			}
			d.Disable(v)
		}
	}
	var bad map[EdgeFault]bool
	if len(edgeFaults) > 0 {
		bad = make(map[EdgeFault]bool, len(edgeFaults))
		for _, e := range edgeFaults {
			bad[e.Normalize()] = true
		}
	}
	return d, bad
}

// routeSurvives is the route predicate of every surviving-graph rebuild:
// p has no faulty node (endpoints included) and traverses no faulty
// link of bad, whose keys are normalized. It stays small enough to
// inline into the rebuild loops.
func routeSurvives(p Path, nodeFaults *graph.Bitset, bad map[EdgeFault]bool) bool {
	for i, v := range p {
		if nodeFaults.Has(v) || bad != nil && i > 0 && bad[EdgeFault{U: min(p[i-1], v), V: max(p[i-1], v)}] {
			return false
		}
	}
	return true
}

// MapEdgeFaultsToNodes implements the paper's reduction: each edge fault
// contributes one of its endpoints to the node fault set. Endpoints
// already faulty are reused for free; otherwise the endpoint with the
// larger identifier is chosen (any deterministic rule works for the
// bound). The returned set includes the original node faults, which
// must be a set over n nodes.
func MapEdgeFaultsToNodes(n int, nodeFaults *graph.Bitset, edgeFaults []EdgeFault) (*graph.Bitset, error) {
	out := graph.NewBitset(n)
	if nodeFaults != nil {
		if nodeFaults.Cap() != n {
			return nil, fmt.Errorf("routing: node fault set over %d nodes, want %d", nodeFaults.Cap(), n)
		}
		out.UnionWith(nodeFaults)
	}
	for _, e := range edgeFaults {
		if e.U < 0 || e.U >= n || e.V < 0 || e.V >= n {
			return nil, fmt.Errorf("routing: edge fault {%d,%d} out of range", e.U, e.V)
		}
		if out.Has(e.U) || out.Has(e.V) {
			continue
		}
		if e.U > e.V {
			out.Add(e.U)
		} else {
			out.Add(e.V)
		}
	}
	return out, nil
}
