package eval

import (
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

// TestOutOfRangeLinkEndpoints: an endpoint past the node range is no
// link, even one a packed 32-bit key would alias onto a real link
// (2+2^32 truncates to 2, so {1, 2+2^32} would read as {1, 2}). Every
// link method of both engines, and the targets of
// ConcentratorEdgeAdversary, must treat it as a non-edge.
func TestOutOfRangeLinkEndpoints(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(1, 2) {
		t.Fatal("CCC(3) lacks the link {1,2}")
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	const far = 2 + 1<<32
	aliases := []routing.EdgeFault{{U: 1, V: far}, {U: far, V: 1}}

	we := NewWalkEngine(routing.FailoverFromRouting(r), g)
	clean := we.Stats()
	for _, a := range aliases {
		we.AddLinkCut(a.U, a.V)
		if we.HasLinkCut(1, 2) || we.HasLinkCut(a.U, a.V) || we.Stats() != clean {
			t.Fatalf("AddLinkCut(%d, %d) cut a link: %v, %v", a.U, a.V, we.CutList(), we.Stats())
		}
	}
	we.SetCuts(aliases)
	we.SetMixedFaults(nil, aliases)
	if len(we.CutList()) != 0 || we.Stats() != clean {
		t.Fatalf("SetCuts/SetMixedFaults cut %v: %v", we.CutList(), we.Stats())
	}
	we.AddLinkCut(1, 2)
	for _, a := range aliases {
		we.RemoveLinkCut(a.U, a.V)
		if !we.HasLinkCut(1, 2) {
			t.Fatalf("RemoveLinkCut(%d, %d) repaired {1,2}", a.U, a.V)
		}
	}

	e := NewEngine(r)
	for _, a := range aliases {
		e.AddEdgeFault(a.U, a.V)
	}
	e.SetMixedFaults(nil, aliases)
	if e.EdgeFaultCount() != 0 || e.HasEdgeFault(1, 2) {
		t.Fatalf("the engine recorded %v", e.EdgeFaults())
	}
	e.AddEdgeFault(1, 2)
	for _, a := range aliases {
		e.RemoveEdgeFault(a.U, a.V)
		if !e.HasEdgeFault(1, 2) || e.HasEdgeFault(a.U, a.V) {
			t.Fatalf("RemoveEdgeFault(%d, %d) repaired {1,2}", a.U, a.V)
		}
	}

	// The alias is a no-op target, not the link {1,2}: the search sees
	// the empty set and one set that changes nothing.
	res := ConcentratorEdgeAdversary(r, 1, aliases[:1])
	if res.Evaluated != 2 || res.WorstEdgeFaults != nil || res.MaxDiameter != 1 {
		t.Fatalf("alias target: %v", res)
	}
}
