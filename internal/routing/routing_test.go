package routing

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

func cycle(t *testing.T, n int) *graph.Graph {
	t.Helper()
	g, err := gen.Cycle(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPathHelpers(t *testing.T) {
	p := Path{1, 2, 3}
	if p.Src() != 1 || p.Dst() != 3 {
		t.Fatal("endpoints wrong")
	}
	r := p.Reversed()
	if !r.Equal(Path{3, 2, 1}) {
		t.Fatalf("reversed = %v", r)
	}
	if !p.Contains(2) || p.Contains(9) {
		t.Fatal("contains wrong")
	}
	if p.Equal(Path{1, 2}) || p.Equal(Path{1, 2, 4}) {
		t.Fatal("equal wrong")
	}
}

func TestSetAndGet(t *testing.T) {
	g := cycle(t, 5)
	r := New(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	p, ok := r.Get(0, 2)
	if !ok || !p.Equal(Path{0, 1, 2}) {
		t.Fatalf("Get = %v,%v", p, ok)
	}
	if r.Has(2, 0) {
		t.Fatal("unidirectional routing should not auto-reverse")
	}
	if r.Len() != 1 {
		t.Fatalf("len=%d", r.Len())
	}
}

func TestSetRejectsBadPaths(t *testing.T) {
	g := cycle(t, 5)
	r := New(g)
	tests := []struct {
		name string
		p    Path
	}{
		{"too short", Path{3}},
		{"non edge", Path{0, 2}},
		{"repeat", Path{0, 1, 0}},
		{"out of range", Path{0, 7}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := r.Set(tc.p); !errors.Is(err, ErrNotPath) {
				t.Fatalf("Set(%v) = %v", tc.p, err)
			}
		})
	}
}

// TestCheckSimplePathMatchesMapRule: short paths and paths longer than
// shortPath get the error, message included, of the map-based check
// the scan replaced: the first node, in path order, that is out of
// range, repeated or not adjacent to its predecessor.
func TestCheckSimplePathMatchesMapRule(t *testing.T) {
	mapRule := func(g *graph.Graph, p Path) error {
		if len(p) < 2 {
			return fmt.Errorf("%w: too short: %v", ErrNotPath, p)
		}
		seen := make(map[int]bool, len(p))
		for i, v := range p {
			if v < 0 || v >= g.N() {
				return fmt.Errorf("%w: node %d out of range", ErrNotPath, v)
			}
			if seen[v] {
				return fmt.Errorf("%w: repeated node %d in %v", ErrNotPath, v, p)
			}
			seen[v] = true
			if i > 0 && !g.HasEdge(p[i-1], v) {
				return fmt.Errorf("%w: missing edge %d-%d in %v", ErrNotPath, p[i-1], v, p)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{9, 200} {
		g := cycle(t, n)
		for trial := 0; trial < 400; trial++ {
			p := make(Path, 1+rng.Intn(min(n, 150))) // a walk around the cycle, then a few edits
			p[0] = rng.Intn(n)
			for i := 1; i < len(p); i++ {
				p[i] = (p[i-1] + 1) % n
			}
			for edits := rng.Intn(3); edits > 0; edits-- {
				k := rng.Intn(len(p))
				if p[k] = rng.Intn(n+2) - 1; k > 0 && rng.Intn(2) == 0 {
					p[k] = p[rng.Intn(k)] // an earlier node again
				}
			}
			if got, want := fmt.Sprint(checkSimplePath(g, p)), fmt.Sprint(mapRule(g, p)); got != want {
				t.Fatalf("cycle %d, path %v: err %s, map rule %s", n, p, got, want)
			}
		}
	}
}

// TestCheckSimplePathAllocs: validating a valid route allocates nothing,
// here a 33-node route, long enough that a set of its nodes would not
// fit on the stack.
func TestCheckSimplePathAllocs(t *testing.T) {
	g := cycle(t, 64)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := r.Get(0, 32)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := checkSimplePath(g, p); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("checkSimplePath(%v) made %v allocations, want 0", p, allocs)
	}
}

func TestSetConflict(t *testing.T) {
	g := cycle(t, 5)
	r := New(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatalf("identical reinsertion should be ok: %v", err)
	}
	if err := r.Set(Path{0, 4, 3, 2}); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflict not detected: %v", err)
	}
}

func TestBidirectionalSet(t *testing.T) {
	g := cycle(t, 5)
	r := NewBidirectional(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	p, ok := r.Get(2, 0)
	if !ok || !p.Equal(Path{2, 1, 0}) {
		t.Fatalf("reverse = %v,%v", p, ok)
	}
	// A different path between the same nodes conflicts in either direction.
	if err := r.Set(Path{2, 3, 4, 0}); !errors.Is(err, ErrConflict) {
		t.Fatalf("bidirectional conflict not detected: %v", err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSymmetrizeMissing(t *testing.T) {
	g := cycle(t, 5)
	r := New(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Set(Path{2, 3, 4, 0}); err != nil {
		t.Fatal(err) // both directions now exist with different paths
	}
	if err := r.Set(Path{1, 2, 3}); err != nil {
		t.Fatal(err) // (3,1) missing
	}
	r.SymmetrizeMissing()
	p, ok := r.Get(3, 1)
	if !ok || !p.Equal(Path{3, 2, 1}) {
		t.Fatalf("(3,1) = %v,%v", p, ok)
	}
	// The asymmetric pair must be preserved, not overwritten.
	p, _ = r.Get(2, 0)
	if !p.Equal(Path{2, 3, 4, 0}) {
		t.Fatalf("(2,0) clobbered: %v", p)
	}
	if r.Len() != 4 {
		t.Fatalf("len=%d want 4", r.Len())
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := cycle(t, 5)
	r := NewBidirectional(g)
	// Bypass Set to inject an inconsistency.
	r.routes[pairKey{0, 2}] = Path{0, 1, 2}
	if err := r.Validate(); err == nil {
		t.Fatal("missing reverse should fail validation")
	}
}

func TestCompleteAndStats(t *testing.T) {
	g := cycle(t, 4)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Complete() {
		t.Fatal("shortest-path routing on a connected graph is complete")
	}
	s := r.Stats()
	if s.Pairs != 12 || !s.Complete || !s.Bidirect || s.NodeCount != 4 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxLen != 2 || s.AvgLen <= 1 || s.AvgLen >= 2 {
		t.Fatalf("length stats = %+v", s)
	}
}

func TestAddEdgeRoutes(t *testing.T) {
	g := cycle(t, 5)
	bi := NewBidirectional(g)
	if err := bi.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	if bi.Len() != 10 { // 5 edges, both directions
		t.Fatalf("len=%d", bi.Len())
	}
	uni := New(g)
	if err := uni.AddEdgeRoutes(); err != nil {
		t.Fatal(err)
	}
	if uni.Len() != 10 {
		t.Fatalf("uni len=%d", uni.Len())
	}
}

func TestSurvivingGraphNoFaults(t *testing.T) {
	g := cycle(t, 5)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	d := r.SurvivingGraph(nil)
	if d.Arcs() != 20 { // complete on 5 nodes
		t.Fatalf("arcs=%d", d.Arcs())
	}
	diam, ok := d.Diameter()
	if !ok || diam != 1 {
		t.Fatalf("diameter = (%d,%v)", diam, ok)
	}
}

func TestSurvivingGraphWithFaults(t *testing.T) {
	g := cycle(t, 6)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	faults := graph.BitsetOf(6, 1)
	d := r.SurvivingGraph(faults)
	if !d.Disabled(1) {
		t.Fatal("faulty node should be disabled")
	}
	// Route 0-1-2 is killed; 0 and 2 must communicate via other nodes.
	if d.HasArc(0, 2) {
		t.Fatal("affected route should be absent")
	}
	if d.Dist(0, 2) < 2 {
		t.Fatal("0 and 2 should need an intermediate route")
	}
}

// TestSurvivingGraphSoundness is the core invariant: an arc exists iff
// the route exists and is unaffected, for random fault sets.
func TestSurvivingGraphSoundness(t *testing.T) {
	g, err := gen.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		faults := graph.NewBitset(16)
		for faults.Count() < 3 {
			faults.Add(rng.Intn(16))
		}
		d := r.SurvivingGraph(faults)
		for u := 0; u < 16; u++ {
			for v := 0; v < 16; v++ {
				if u == v {
					continue
				}
				p, okRoute := r.Get(u, v)
				want := okRoute
				for _, w := range p {
					want = want && !faults.Has(w)
				}
				if got := d.HasArc(u, v); got != want {
					t.Fatalf("arc (%d,%d) = %v, want %v (faults=%v)", u, v, got, want, faults)
				}
			}
		}
	}
}

func TestShortestPathRoutesAreShortest(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 5 {
		dist := g.BFSDistances(u, nil)
		for v := 0; v < g.N(); v++ {
			if v == u {
				continue
			}
			p, ok := r.Get(u, v)
			if !ok {
				t.Fatalf("missing route (%d,%d)", u, v)
			}
			if len(p)-1 != dist[v] {
				t.Fatalf("route (%d,%d) has length %d, shortest is %d", u, v, len(p)-1, dist[v])
			}
		}
	}
}

func TestShortestPathPartialOnDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Has(0, 2) {
		t.Fatal("cross-component route should not exist")
	}
	if !r.Has(0, 1) || !r.Has(2, 3) {
		t.Fatal("intra-component routes missing")
	}
}

func TestMultiRoutingBasics(t *testing.T) {
	g := cycle(t, 5)
	m := NewMulti(g, 2, false)
	if err := m.Add(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 4, 3, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 1, 2}); err != nil {
		t.Fatal(err) // duplicate ignored
	}
	if got := len(m.Get(0, 2)); got != 2 {
		t.Fatalf("routes = %d", got)
	}
	if m.MaxRoutesPerPair() != 2 {
		t.Fatal("max routes wrong")
	}
	if m.Pairs() != 1 {
		t.Fatalf("pairs = %d", m.Pairs())
	}
}

func TestMultiRoutingLimit(t *testing.T) {
	g := cycle(t, 6)
	m := NewMulti(g, 1, false)
	if err := m.Add(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 5, 4, 3, 2}); err == nil {
		t.Fatal("limit should be enforced")
	}
}

func TestMultiRoutingBidirectional(t *testing.T) {
	g := cycle(t, 5)
	m := NewMulti(g, 0, true)
	if err := m.Add(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if got := m.Get(2, 0); len(got) != 1 || !got[0].Equal(Path{2, 1, 0}) {
		t.Fatalf("reverse = %v", got)
	}
}

func TestMultiRoutingSurvivesIfAnyRouteDoes(t *testing.T) {
	g := cycle(t, 6)
	m := NewMulti(g, 2, false)
	if err := m.Add(Path{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 5, 4, 3}); err != nil {
		t.Fatal(err)
	}
	d := m.SurvivingGraph(graph.BitsetOf(6, 1))
	if !d.HasArc(0, 3) {
		t.Fatal("second route should keep the arc alive")
	}
	d = m.SurvivingGraph(graph.BitsetOf(6, 1, 4))
	if d.HasArc(0, 3) {
		t.Fatal("both routes dead: no arc")
	}
	// Faulty endpoint kills the pair outright.
	d = m.SurvivingGraph(graph.BitsetOf(6, 3))
	if d.HasArc(0, 3) {
		t.Fatal("faulty endpoint should kill the arc")
	}
}
