package eval

import (
	"ftroute/internal/eval/oracle"
	"testing"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

func TestBeyondToleranceWithinBudgetMatchesMaxDiameter(t *testing.T) {
	// At f <= t for the edge routing on a cycle, G−F stays connected
	// and the componentwise worst equals the ordinary worst.
	r := cycleRouting(t, 8)
	res := BeyondTolerance(r, 1)
	if res.Shattered != 0 {
		t.Fatalf("no shattering expected: %+v", res)
	}
	if res.GraphConnected != res.Evaluated {
		t.Fatalf("one fault cannot disconnect C8: %+v", res)
	}
	ref := oracle.Profile(r, 1, oc(Config{Mode: Exhaustive}))[1]
	if res.WorstComponentDiameter != ref {
		t.Fatalf("componentwise %d != plain %d", res.WorstComponentDiameter, ref)
	}
}

func TestBeyondToleranceDisconnectingFaults(t *testing.T) {
	// C8 edge routing at f = 2: antipodal fault pairs split the cycle
	// into two paths. Within each path component the edge routing keeps
	// everyone connected, so nothing shatters and the worst component
	// diameter is the longer path's length.
	r := cycleRouting(t, 8)
	res := BeyondTolerance(r, 2)
	if res.Shattered != 0 {
		t.Fatalf("edge routing on a cycle never shatters components: %+v", res)
	}
	if res.GraphConnected == res.Evaluated {
		t.Fatal("some 2-fault sets must disconnect C8")
	}
	// Adjacent faults leave one path of 6 nodes: diameter 5.
	if res.WorstComponentDiameter != 5 {
		t.Fatalf("worst component diameter = %d, want 5", res.WorstComponentDiameter)
	}
}

func TestBeyondToleranceDetectsShattering(t *testing.T) {
	// A routing that only installs one long route is shattered by any
	// interior fault: 0 and 4 stay graph-connected via the other side
	// of the cycle, but no surviving route joins them.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.MustAddEdge(i, (i+1)%6)
	}
	// Build a deliberately fragile routing: route between 0 and 3 via
	// 1,2 only; no other routes at all.
	r := fragileRouting(t, g)
	res := BeyondTolerance(r, 1)
	if res.Shattered == 0 {
		t.Fatalf("fragile routing should shatter: %+v", res)
	}
	if res.WorstFaults.Count() != 1 {
		t.Fatalf("witness = %v", res.WorstFaults)
	}
}

// fragileRouting installs exactly one multi-hop route on g.
func fragileRouting(t *testing.T, g *graph.Graph) *routing.Routing {
	t.Helper()
	r := newSingleRouteRouting(t, g)
	return r
}
