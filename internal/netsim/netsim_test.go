package netsim

import (
	"errors"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// buildKernel returns a kernel routing on CCC(3) with its tolerance.
func buildKernel(t *testing.T) (*routing.Routing, int) {
	t.Helper()
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, info, err := core.Kernel(g, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r, info.T
}

func TestSendNoFaults(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	del, err := nw.Send(0, 23)
	if err != nil {
		t.Fatal(err)
	}
	if del.RouteTraversals < 1 || del.Hops < 1 {
		t.Fatalf("delivery = %+v", del)
	}
	if del.Time != del.Hops+10*del.RouteTraversals {
		t.Fatalf("cost model wrong: %+v", del)
	}
	// Routes must chain from src to dst.
	if del.Routes[0].Src() != 0 || del.Routes[len(del.Routes)-1].Dst() != 23 {
		t.Fatalf("route chain endpoints wrong: %+v", del.Routes)
	}
	for i := 1; i < len(del.Routes); i++ {
		if del.Routes[i].Src() != del.Routes[i-1].Dst() {
			t.Fatalf("route chain broken at %d: %+v", i, del.Routes)
		}
	}
}

func TestSendSelf(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	del, err := nw.Send(5, 5)
	if err != nil || del.RouteTraversals != 0 {
		t.Fatalf("self delivery = %+v err=%v", del, err)
	}
}

func TestSendWithFaultsReroutes(t *testing.T) {
	r, tol := buildKernel(t)
	nw := New(r, Params{})
	base, err := nw.Send(0, 23)
	if err != nil {
		t.Fatal(err)
	}
	// Fail an interior node of the first route and resend: the message
	// must still arrive (|F| = 1 <= t).
	if tol < 1 {
		t.Skip("tolerance too low")
	}
	interior := -1
	for _, p := range base.Routes {
		if len(p) > 2 {
			interior = p[1]
			break
		}
	}
	if interior == -1 {
		t.Skip("all routes are single edges")
	}
	nw.Fail(interior)
	del, err := nw.Send(0, 23)
	if err != nil {
		t.Fatalf("reroute failed: %v", err)
	}
	for _, p := range del.Routes {
		if p.Contains(interior) {
			t.Fatalf("delivery used a faulty node: %+v", del)
		}
	}
}

func TestSendFaultyEndpoint(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	nw.Fail(3)
	if _, err := nw.Send(3, 5); !errors.Is(err, ErrFaulty) {
		t.Fatalf("err = %v", err)
	}
	if _, err := nw.Send(5, 3); !errors.Is(err, ErrFaulty) {
		t.Fatalf("err = %v", err)
	}
}

func TestSendUnreachable(t *testing.T) {
	// A path graph routing: failing the middle disconnects it.
	g, err := gen.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	r := routing.NewBidirectional(g)
	if err := r.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	nw := New(r, Params{})
	nw.Fail(1)
	if _, err := nw.Send(0, 2); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepairRestores(t *testing.T) {
	g, err := gen.Path(3)
	if err != nil {
		t.Fatal(err)
	}
	r := routing.NewBidirectional(g)
	if err := r.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	nw := New(r, Params{})
	nw.Fail(1)
	nw.Repair(1)
	if _, err := nw.Send(0, 2); err != nil {
		t.Fatalf("send after repair: %v", err)
	}
	if nw.Faults().Count() != 0 {
		t.Fatal("faults not cleared")
	}
}

func TestRouteTraversalsBoundedBySurvivingDiameter(t *testing.T) {
	r, tol := buildKernel(t)
	nw := New(r, Params{})
	nw.Fail(7)
	if tol < 1 {
		t.Skip("tolerance too low")
	}
	diam, ok := nw.SurvivingGraph().Diameter()
	if !ok {
		t.Fatal("surviving graph should stay connected under one fault")
	}
	for src := 0; src < 24; src += 5 {
		for dst := 0; dst < 24; dst += 7 {
			if src == dst || src == 7 || dst == 7 {
				continue
			}
			del, err := nw.Send(src, dst)
			if err != nil {
				t.Fatal(err)
			}
			if del.RouteTraversals > diam {
				t.Fatalf("(%d,%d): %d traversals > surviving diameter %d", src, dst, del.RouteTraversals, diam)
			}
		}
	}
}

func TestBroadcastReachesAllWithinBound(t *testing.T) {
	r, tol := buildKernel(t)
	nw := New(r, Params{})
	if tol >= 1 {
		nw.Fail(11)
	}
	diam, ok := nw.SurvivingGraph().Diameter()
	if !ok {
		t.Fatal("disconnected")
	}
	res, err := nw.Broadcast(0, diam)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllReached {
		t.Fatalf("broadcast with bound=diam=%d missed nodes: %+v", diam, res)
	}
	if res.MaxCounter > diam {
		t.Fatalf("counter %d exceeded diameter %d", res.MaxCounter, diam)
	}
}

func TestBroadcastTooSmallBound(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	res, err := nw.Broadcast(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllReached {
		t.Fatal("bound 0 cannot reach anything")
	}
	if res.Discarded == 0 {
		t.Fatal("messages should have been discarded")
	}
}

func TestBroadcastFaultyOrigin(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	nw.Fail(0)
	if _, err := nw.Broadcast(0, 5); !errors.Is(err, ErrFaulty) {
		t.Fatalf("err = %v", err)
	}
}

func TestParamsDefaults(t *testing.T) {
	p := Params{}
	if p.hop() != 1 || p.endpoint() != 10 {
		t.Fatal("default costs wrong")
	}
	p = Params{HopCost: 2, EndpointCost: 5}
	if p.hop() != 2 || p.endpoint() != 5 {
		t.Fatal("explicit costs wrong")
	}
}

func TestClockAdvances(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	if nw.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	del1, err := nw.Send(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	del2, err := nw.Send(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if del2.Time <= del1.Time {
		t.Fatal("clock did not advance")
	}
}

func TestSurvivingGraphCaching(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	a := nw.SurvivingGraph()
	b := nw.SurvivingGraph()
	if a != b {
		t.Fatal("surviving graph should be cached between fault changes")
	}
	nw.Fail(2)
	if c := nw.SurvivingGraph(); c == a {
		t.Fatal("fault change should invalidate the cache")
	}
	if !nw.SurvivingGraph().Disabled(2) {
		t.Fatal("fault not reflected")
	}
}

// TestBroadcastMatchesReachability cross-checks the broadcast against
// plain BFS reachability in the surviving route graph.
func TestBroadcastMatchesReachability(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	nw.Fail(5)
	nw.Fail(13)
	d := nw.SurvivingGraph()
	dist := d.BFSDistances(0)
	res, err := nw.Broadcast(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	reached := graph.NewBitset(24)
	for _, v := range res.Reached {
		reached.Add(v)
	}
	for v := 0; v < 24; v++ {
		if v == 5 || v == 13 {
			continue
		}
		wantReached := dist[v] != graph.Unreachable
		if reached.Has(v) != wantReached {
			t.Fatalf("node %d: broadcast=%v bfs=%v", v, reached.Has(v), wantReached)
		}
	}
}

// cycleEdgeRouting returns the bidirectional edge routing on C_n.
func cycleEdgeRouting(t *testing.T, n int) *routing.Routing {
	t.Helper()
	g, err := gen.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	r := routing.NewBidirectional(g)
	if err := r.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestFaultMutatorsIgnoreOutOfRangeNodes: failing or repairing a node
// outside 0..n-1 changes nothing, as in routing.FaultSet, instead of
// panicking.
func TestFaultMutatorsIgnoreOutOfRangeNodes(t *testing.T) {
	r, _ := buildKernel(t)
	n := r.Graph().N()
	nw := New(r, Params{})
	for _, v := range []int{n, -1, n + 40} {
		nw.Fail(v)
		nw.Repair(v)
		nw.Fail(v)
	}
	if nw.Faults().Count() != 0 {
		t.Fatalf("faults = %v", nw.Faults())
	}
	if got, want := nw.SurvivingGraph().Arcs(), r.SurvivingGraph(nil).Arcs(); got != want {
		t.Fatalf("surviving arcs %d, fault-free %d", got, want)
	}
}
