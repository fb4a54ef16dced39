package routing

import (
	"fmt"
	"math/rand"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

func TestEdgeFaultNormalize(t *testing.T) {
	for _, tc := range []struct{ in, want EdgeFault }{
		{EdgeFault{U: 3, V: 1}, EdgeFault{U: 1, V: 3}},
		{EdgeFault{U: 1, V: 3}, EdgeFault{U: 1, V: 3}},
		{EdgeFault{U: 2, V: 2}, EdgeFault{U: 2, V: 2}},
		{EdgeFault{U: 0, V: 0}, EdgeFault{U: 0, V: 0}},
	} {
		if got := tc.in.Normalize(); got != tc.want {
			t.Fatalf("Normalize(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	// Both orientations denote the same link after normalization.
	if (EdgeFault{U: 5, V: 2}).Normalize() != (EdgeFault{U: 2, V: 5}).Normalize() {
		t.Fatal("orientations normalize differently")
	}
}

func TestSurvivingGraphMixedDuplicateAndSelfLoopFaults(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	// Duplicates (in both orientations) and self-loops collapse to the
	// single real fault {0,1}: the surviving graph must be identical.
	messy := []EdgeFault{{U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 3, V: 3}}
	clean := []EdgeFault{{U: 0, V: 1}}
	dm := r.SurvivingGraphMixed(nil, messy)
	dc := r.SurvivingGraphMixed(nil, clean)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if dm.HasArc(u, v) != dc.HasArc(u, v) {
				t.Fatalf("arc (%d,%d) differs between messy and clean fault lists", u, v)
			}
		}
	}
	// A self-loop alone kills nothing.
	d := r.SurvivingGraphMixed(nil, []EdgeFault{{U: 2, V: 2}})
	if d.Arcs() != r.SurvivingGraph(nil).Arcs() {
		t.Fatal("self-loop edge fault killed routes")
	}
}

func TestMultiRoutingSurvivingGraphMixed(t *testing.T) {
	// Two parallel routes per pair on C6 (clockwise and counterclockwise):
	// one dead edge leaves every pair its other route, so no arc dies;
	// a node fault still kills the node's pairs.
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMulti(g, 0, false)
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if u == v {
				continue
			}
			cw := Path{u}
			for w := u; w != v; w = (w + 1) % 6 {
				cw = append(cw, (w+1)%6)
			}
			ccw := Path{u}
			for w := u; w != v; w = (w + 5) % 6 {
				ccw = append(ccw, (w+5)%6)
			}
			if err := m.Add(cw); err != nil {
				t.Fatal(err)
			}
			if err := m.Add(ccw); err != nil {
				t.Fatal(err)
			}
		}
	}
	d := m.SurvivingGraphMixed(nil, []EdgeFault{{U: 0, V: 1}})
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if u != v && !d.HasArc(u, v) {
				t.Fatalf("arc (%d,%d) should survive via the parallel route", u, v)
			}
		}
	}
	// Both edges at node 0 dead: 0 cannot reach anyone, others reroute.
	d = m.SurvivingGraphMixed(nil, []EdgeFault{{U: 0, V: 1}, {U: 5, V: 0}})
	if d.HasArc(0, 3) || d.HasArc(3, 0) {
		t.Fatal("node 0 lost both incident edges; its routes must be dead")
	}
	if !d.HasArc(1, 5) {
		t.Fatal("pair (1,5) still has its inner route")
	}
	// Node fault composes with edge faults: 4->0 keeps its clockwise
	// route (4,5,0), but 2->0 loses both — counterclockwise uses edge
	// {0,1} and clockwise passes node 3.
	d = m.SurvivingGraphMixed(graph.BitsetOf(6, 3), []EdgeFault{{U: 0, V: 1}})
	if !d.Disabled(3) {
		t.Fatal("node fault should disable the node")
	}
	if !d.HasArc(4, 0) {
		t.Fatal("pair (4,0) survives via (4,5,0)")
	}
	if d.HasArc(2, 0) {
		t.Fatal("pair (2,0) lost both routes")
	}
	if d.HasArc(2, 3) || d.HasArc(4, 3) {
		t.Fatal("arcs into the faulty node must be dead")
	}
}

func TestSurvivingGraphMixedEdgeOnly(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	// Fail edge {0,1}: routes traversing it die, everything else lives.
	d := r.SurvivingGraphMixed(nil, []EdgeFault{{U: 1, V: 0}})
	if d.HasArc(0, 1) || d.HasArc(1, 0) {
		t.Fatal("direct route over the dead edge must be gone")
	}
	// 0 and 1 are both alive and reachable the long way.
	if d.Dist(0, 1) == graph.Unreachable {
		t.Fatal("nodes should remain mutually reachable")
	}
	// The route 0-5-4 does not use {0,1}.
	if !d.HasArc(0, 4) {
		t.Fatal("unrelated route should survive")
	}
}

func TestSurvivingGraphMixedNodeAndEdge(t *testing.T) {
	g, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	d := r.SurvivingGraphMixed(graph.BitsetOf(8, 4), []EdgeFault{{U: 0, V: 1}})
	if !d.Disabled(4) {
		t.Fatal("node fault should disable the node")
	}
	if d.HasArc(0, 1) {
		t.Fatal("edge fault should kill the direct route")
	}
	if d.HasArc(3, 5) || d.HasArc(5, 3) {
		t.Fatal("routes through node 4 should be dead")
	}
}

func TestMixedWeakerThanNodeMapping(t *testing.T) {
	// The paper's reduction: mapping each edge fault to an endpoint
	// node fault kills at least every route the edge fault kills. So
	// every arc present under the mapped node faults (between nodes
	// alive in both) must also be present under the literal mixed
	// semantics.
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	edges := []EdgeFault{{U: 0, V: 1}, {U: 10, V: 11}}
	mixed := r.SurvivingGraphMixed(nil, edges)
	mapped, err := MapEdgeFaultsToNodes(g.N(), nil, edges)
	if err != nil {
		t.Fatal(err)
	}
	dm := r.SurvivingGraph(mapped)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v || mapped.Has(u) || mapped.Has(v) {
				continue
			}
			if dm.HasArc(u, v) && !mixed.HasArc(u, v) {
				t.Fatalf("arc (%d,%d) survives node mapping but not mixed semantics", u, v)
			}
		}
	}
}

func TestMapEdgeFaultsReusesFaultyEndpoints(t *testing.T) {
	nodes := graph.BitsetOf(6, 2)
	mapped, err := MapEdgeFaultsToNodes(6, nodes, []EdgeFault{{U: 2, V: 3}, {U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// {2,3} is covered by existing fault 2; {0,1} adds max(0,1)=1.
	if mapped.Count() != 2 || !mapped.Has(2) || !mapped.Has(1) {
		t.Fatalf("mapped = %v", mapped)
	}
}

func TestMapEdgeFaultsOutOfRange(t *testing.T) {
	if _, err := MapEdgeFaultsToNodes(4, nil, []EdgeFault{{U: 0, V: 9}}); err == nil {
		t.Fatal("out-of-range edge should error")
	}
}

// walksStoredRoutes asserts that every route of r walks hop by hop
// through ft, without faults, along exactly the stored path.
func walksStoredRoutes(t *testing.T, ft *FailoverTables, r *Routing) {
	t.Helper()
	r.Each(func(u, v int, p Path) {
		res := ft.WalkUnderFaults(u, v, nil)
		if res.Outcome != Delivered || !res.Path.Equal(p) || res.Failovers != 0 {
			t.Fatalf("walk (%d,%d) = %+v, route %v", u, v, res, p)
		}
	})
}

func TestCompileAndWalk(t *testing.T) {
	g, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	walksStoredRoutes(t, ft, r)
	if ft.Entries() == 0 {
		t.Fatal("no entries")
	}
	// Sum of per-node entries equals the total.
	total := 0
	for v := 0; v < g.N(); v++ {
		total += ft.EntriesAt(v)
	}
	if total != ft.Entries() {
		t.Fatalf("per-node sum %d != total %d", total, ft.Entries())
	}
	p := ft.WalkUnderFaults(0, 7, nil).Path
	if p.Src() != 0 || p.Dst() != 7 || len(p) != 4 {
		t.Fatalf("walk = %v", p)
	}
}

func TestWalkSelfAndMissing(t *testing.T) {
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	r := New(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	if res := ft.WalkUnderFaults(3, 3, nil); res.Outcome != Delivered || !res.Path.Equal(Path{3}) {
		t.Fatalf("self walk = %+v", res)
	}
	// A pair without a route has no entry: the walk blackholes at src.
	if res := ft.WalkUnderFaults(2, 0, nil); res.Outcome != Blackhole || !res.Path.Equal(Path{2}) {
		t.Fatalf("missing route walk = %+v", res)
	}
}

func TestSurvivingWalk(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	faults := FaultSetOf(6, []int{1}, nil)
	// Route 0->2 goes through 1: the walk must stop before entering 1.
	res := ft.WalkUnderFaults(0, 2, faults)
	if res.Outcome != Blackhole {
		t.Fatal("walk through a faulty node must fail")
	}
	if !res.Path.Equal(Path{0}) {
		t.Fatalf("prefix = %v", res.Path)
	}
	// Route 0->4 goes 0-5-4: unaffected.
	if res := ft.WalkUnderFaults(0, 4, faults); res.Outcome != Delivered || len(res.Path) != 3 {
		t.Fatalf("unaffected walk = %+v", res)
	}
	// Faulty endpoints.
	if res := ft.WalkUnderFaults(1, 4, faults); res.Outcome == Delivered {
		t.Fatal("faulty source must fail")
	}
}

// TestForwardingMatchesSurvivingGraph: a pair's surviving-graph arc
// exists iff the rank-1 hop-by-hop walk delivers under the same node
// faults.
func TestForwardingMatchesSurvivingGraph(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	faults := graph.BitsetOf(g.N(), 3, 17)
	walkFaults := FaultSetOf(g.N(), faults.Elements(), nil)
	d := r.SurvivingGraph(faults)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v || faults.Has(u) || faults.Has(v) {
				continue
			}
			delivered := ft.WalkUnderFaults(u, v, walkFaults).Outcome == Delivered
			if delivered != d.HasArc(u, v) {
				t.Fatalf("(%d,%d): walk=%v arc=%v", u, v, delivered, d.HasArc(u, v))
			}
		}
	}
}

// sameDigraph reports the first node or arc on which a and b differ.
func sameDigraph(a, b *graph.Digraph) error {
	if a.N() != b.N() || a.Arcs() != b.Arcs() {
		return fmt.Errorf("%v vs %v", a, b)
	}
	for u := 0; u < a.N(); u++ {
		if a.Disabled(u) != b.Disabled(u) {
			return fmt.Errorf("node %d disabled %v vs %v", u, a.Disabled(u), b.Disabled(u))
		}
		for v := 0; v < a.N(); v++ {
			if a.HasArc(u, v) != b.HasArc(u, v) {
				return fmt.Errorf("arc (%d,%d) %v vs %v", u, v, a.HasArc(u, v), b.HasArc(u, v))
			}
		}
	}
	return nil
}

// TestSurvivingGraphMixedMatchesRouteCheck pins the surviving-graph
// rebuild of both containers to a route check written here: under
// seeded random mixed fault sets whose link lists carry reversed,
// duplicate, self-loop and non-edge entries, an arc u→v exists iff some
// route of (u, v) has no faulty node and crosses no faulty link, links
// compared as unordered pairs; a node is disabled iff it is faulty; and
// SurvivingGraph(F) is SurvivingGraphMixed(F, nil).
func TestSurvivingGraphMixedMatchesRouteCheck(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	n, edges := g.N(), g.Edges()
	survives := func(p Path, nodes *graph.Bitset, links []EdgeFault) bool {
		for i, v := range p {
			if nodes.Has(v) {
				return false
			}
			for _, e := range links {
				if i > 0 && (e.U == p[i-1] && e.V == v || e.U == v && e.V == p[i-1]) {
					return false
				}
			}
		}
		return true
	}
	containers := []struct {
		name   string
		mixed  func(*graph.Bitset, []EdgeFault) *graph.Digraph
		node   func(*graph.Bitset) *graph.Digraph
		routes func(u, v int) []Path
	}{
		{"routing", r.SurvivingGraphMixed, r.SurvivingGraph, func(u, v int) []Path {
			if p, ok := r.Get(u, v); ok {
				return []Path{p}
			}
			return nil
		}},
		{"multirouting", m.SurvivingGraphMixed, m.SurvivingGraph, m.Get},
	}
	rng := rand.New(rand.NewSource(19))
	var kinds [5]int
	for trial := 0; trial < 80; trial++ {
		var nodes *graph.Bitset
		if trial%5 != 0 {
			nodes = graph.NewBitset(n)
			for k := rng.Intn(3); k > 0; k-- {
				nodes.Add(rng.Intn(n))
			}
		}
		var links []EdgeFault
		for k := rng.Intn(4); k > 0; k-- {
			e, x, y := edges[rng.Intn(len(edges))], rng.Intn(n), rng.Intn(n)
			kind := rng.Intn(len(kinds))
			switch kind {
			case 0:
				links = append(links, EdgeFault{U: e[0], V: e[1]})
			case 1: // reversed
				links = append(links, EdgeFault{U: e[1], V: e[0]})
			case 2: // duplicate, once each way
				links = append(links, EdgeFault{U: e[0], V: e[1]}, EdgeFault{U: e[1], V: e[0]})
			case 3: // self-loop
				links = append(links, EdgeFault{U: x, V: x})
			default: // non-edge
				if x == y || g.HasEdge(x, y) {
					continue
				}
				links = append(links, EdgeFault{U: x, V: y})
			}
			kinds[kind]++
		}
		for _, c := range containers {
			d := c.mixed(nodes, links)
			for u := 0; u < n; u++ {
				if d.Disabled(u) != nodes.Has(u) {
					t.Fatalf("%s trial %d: node %d disabled=%v, faulty=%v", c.name, trial, u, d.Disabled(u), nodes.Has(u))
				}
				for v := 0; v < n; v++ {
					want := false
					for _, p := range c.routes(u, v) {
						want = want || survives(p, nodes, links)
					}
					if d.HasArc(u, v) != want {
						t.Fatalf("%s trial %d: arc (%d,%d) = %v, want %v (nodes %v, links %v)", c.name, trial, u, v, d.HasArc(u, v), want, nodes, links)
					}
				}
			}
			if err := sameDigraph(c.node(nodes), c.mixed(nodes, nil)); err != nil {
				t.Fatalf("%s trial %d: SurvivingGraph vs SurvivingGraphMixed(F, nil): %v", c.name, trial, err)
			}
		}
	}
	for kind, count := range kinds {
		if count == 0 {
			t.Fatalf("link kind %d never drawn: %v", kind, kinds)
		}
	}
}

// TestOutOfRangeFaultsDoNotPanic: on CCC(3) (n = 24) each row once
// panicked. A node fault set over the wrong number of nodes is an
// error; a node fault outside 0..n-1 lies on no route, so it kills
// nothing and disables nothing.
func TestOutOfRangeFaultsDoNotPanic(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	rows := []struct {
		name string
		run  func() error
	}{
		{"MapEdgeFaultsToNodes over n+1", func() error {
			if _, err := MapEdgeFaultsToNodes(n, graph.BitsetOf(n+1, 1), nil); err == nil {
				return fmt.Errorf("no error")
			}
			return nil
		}},
		{"MapEdgeFaultsToNodes over n-1", func() error {
			if _, err := MapEdgeFaultsToNodes(n, graph.BitsetOf(n-1, 1), []EdgeFault{{U: 0, V: 1}}); err == nil {
				return fmt.Errorf("no error")
			}
			return nil
		}},
		{"Routing.SurvivingGraph node 26", func() error {
			return sameDigraph(r.SurvivingGraph(graph.BitsetOf(29, 26)), r.SurvivingGraph(nil))
		}},
		{"MultiRouting.SurvivingGraph node 26", func() error {
			return sameDigraph(m.SurvivingGraph(graph.BitsetOf(29, 26)), m.SurvivingGraph(nil))
		}},
		{"SurvivingGraphMixed node 24", func() error {
			links := []EdgeFault{{U: 0, V: 1}}
			return sameDigraph(r.SurvivingGraphMixed(graph.BitsetOf(n+1, n), links), r.SurvivingGraphMixed(nil, links))
		}},
		{"FaultSetOf node n", func() error {
			if f := FaultSetOf(n, []int{n, -1}, nil); f.NodeFaulty(n) || f.NodeFaults().Count() != 0 {
				return fmt.Errorf("nodes %v", f.NodeFaults())
			}
			return nil
		}},
		{"FailNode outside", func() error {
			f := NewFaultSet(n)
			for _, v := range []int{n, -1, 1 << 40, 3} {
				f.FailNode(v)
			}
			if got := f.NodeFaults().Elements(); len(got) != 1 || got[0] != 3 {
				return fmt.Errorf("nodes %v, want [3]", got)
			}
			return nil
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			if err := row.run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
