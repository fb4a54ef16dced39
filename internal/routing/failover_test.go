package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// diamondGraph is the 4-node graph used to exercise loops: edges
// 0-1, 1-2, 2-3, 0-2, 1-3.
func diamondGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}, {1, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// TestFailoverFromRoutingWalksStoredRoutes: rank-1 tables hold one
// entry per hop of each route, and a fault-free walk follows the
// stored route exactly.
func TestFailoverFromRoutingWalksStoredRoutes(t *testing.T) {
	g := gen.Petersen()
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	fo := FailoverFromRouting(r)
	if fo.MaxRank() != 1 {
		t.Fatalf("rank-1 tables report MaxRank %d", fo.MaxRank())
	}
	hops := 0
	r.Each(func(u, v int, p Path) { hops += len(p) - 1 })
	if fo.Entries() != hops {
		t.Fatalf("entries %d, routes have %d hops", fo.Entries(), hops)
	}
	walksStoredRoutes(t, fo, r)
}

func TestWalkClassifiesLoop(t *testing.T) {
	g := diamondGraph(t)
	m := NewMulti(g, 2, false)
	if err := m.Add(Path{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 2, 1, 3}); err != nil {
		t.Fatal(err)
	}
	ft := CompileFailover(m)
	faults := NewFaultSet(4)
	faults.FailLink(2, 3)
	faults.FailLink(1, 3)
	res := ft.WalkUnderFaults(0, 3, faults)
	if res.Outcome != Loop {
		t.Fatalf("outcome = %v, want Loop (path %v)", res.Outcome, res.Path)
	}
	// 0 -> 1 (primary), 1 -> 2 (primary; 3 is cut... rank order at 1 is
	// [2 3]), 2 -> 1 (backup; 3 is cut): 1 revisited.
	if !res.Path.Equal(Path{0, 1, 2, 1}) {
		t.Fatalf("loop path = %v", res.Path)
	}
	if res.Failovers == 0 {
		t.Fatal("loop without any failover hop")
	}
}

func TestWalkClassifiesBlackhole(t *testing.T) {
	g := cycle(t, 6)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	faults := NewFaultSet(6)
	// Isolate node 3 at the link level: no entry at 2 or 4 can cross.
	faults.FailLink(2, 3)
	faults.FailLink(3, 4)
	res := ft.WalkUnderFaults(0, 3, faults)
	if res.Outcome != Blackhole {
		t.Fatalf("outcome = %v, want Blackhole", res.Outcome)
	}
	if res.Hops != len(res.Path)-1 {
		t.Fatalf("hops %d vs path %v", res.Hops, res.Path)
	}
}

func TestWalkEndpointAndTrivialCases(t *testing.T) {
	g := cycle(t, 5)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	faults := NewFaultSet(5)
	faults.FailNode(2)
	if res := ft.WalkUnderFaults(2, 4, faults); res.Outcome != Blackhole {
		t.Fatalf("faulty src: %v", res.Outcome)
	}
	if res := ft.WalkUnderFaults(0, 2, faults); res.Outcome != Blackhole {
		t.Fatalf("faulty dst: %v", res.Outcome)
	}
	if res := ft.WalkUnderFaults(1, 1, faults); res.Outcome != Delivered || res.Hops != 0 {
		t.Fatalf("self delivery: %+v", res)
	}
	// nil fault set means no faults.
	if res := ft.WalkUnderFaults(0, 2, nil); res.Outcome != Delivered {
		t.Fatalf("nil faults: %v", res.Outcome)
	}
}

// TestWalkRejectsOutOfRangeEndpoints: on CCC(3) (n = 24) a src or dst
// outside 0..n-1 blackholes at once with Path{src}, before the src ==
// dst shortcut, instead of indexing past the tables.
func TestWalkRejectsOutOfRangeEndpoints(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	ft := FailoverFromRouting(r)
	for _, c := range []struct{ src, dst int }{
		{-1, 0}, {1024, 0}, {0, 24}, {0, -1}, {24, 3}, {-1, -1}, {24, 24}, {-5, 1 << 40},
	} {
		for _, faults := range []*FaultSet{nil, FaultSetOf(g.N(), []int{1}, []EdgeFault{{U: 0, V: 1}})} {
			res := ft.WalkUnderFaults(c.src, c.dst, faults)
			if res.Outcome != Blackhole || !res.Path.Equal(Path{c.src}) || res.Hops != 0 || res.Failovers != 0 {
				t.Errorf("WalkUnderFaults(%d, %d) = %+v, want a Blackhole at Path{%d}", c.src, c.dst, res, c.src)
			}
		}
		if ft.PairIndex(c.src, c.dst) != -1 || ft.NextRanked(0, c.src, c.dst) != nil {
			t.Errorf("(%d, %d): PairIndex %d, NextRanked %v", c.src, c.dst, ft.PairIndex(c.src, c.dst), ft.NextRanked(0, c.src, c.dst))
		}
	}
}

func TestReinforceBackupsAreLinkDisjoint(t *testing.T) {
	g, err := gen.Hypercube(3)
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
	pairs := 0
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			routes := m.Get(u, v)
			if len(routes) == 0 {
				t.Fatalf("(%d,%d) lost its route", u, v)
			}
			if p, _ := r.Get(u, v); !routes[0].Equal(p) {
				t.Fatalf("(%d,%d): primary changed: %v vs %v", u, v, routes[0], p)
			}
			// Backup i shares no link with routes 0..i-1.
			seen := make(map[EdgeFault]bool)
			for i, p := range routes {
				for j := 0; j+1 < len(p); j++ {
					e := EdgeFault{U: p[j], V: p[j+1]}.Normalize()
					if seen[e] {
						t.Fatalf("(%d,%d): route %d reuses link %v", u, v, i, e)
					}
					seen[e] = true
				}
			}
			pairs++
		}
	}
	if pairs != g.N()*(g.N()-1) {
		t.Fatalf("checked %d pairs", pairs)
	}
	// Cutting the first link of every primary must leave the packet
	// deliverable via the first backup.
	ft := CompileFailover(m)
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				continue
			}
			primary := m.Get(u, v)[0]
			faults := NewFaultSet(g.N())
			faults.FailLink(primary[0], primary[1])
			res := ft.WalkUnderFaults(u, v, faults)
			if res.Outcome != Delivered {
				t.Fatalf("(%d,%d) under first-link cut: %v (path %v)", u, v, res.Outcome, res.Path)
			}
			if res.Failovers == 0 {
				t.Fatalf("(%d,%d): delivered without using a backup", u, v)
			}
		}
	}
}

func TestReinforceStopsWhenDisconnected(t *testing.T) {
	// On a cycle the primary and one backup exhaust the link-disjoint
	// paths; a second backup must not exist.
	g := cycle(t, 5)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Reinforce(r, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.MaxRoutesPerPair(); got != 2 {
		t.Fatalf("cycle pairs carry %d routes, want 2", got)
	}
}

// TestBackupSearchAcrossWrap: a Reinforce worker whose pair and search
// stamps wrap past zero on first use finds the backups a fresh worker
// finds. Its arrays start out holding the stamp 1, which both counters
// restart at, so a wrap that forgot to clear them would see every link
// used and every node labelled.
func TestBackupSearchAcrossWrap(t *testing.T) {
	g := fuzzGraph(12, 0x5a5a)
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	items := graph.NewItems(g)
	fresh, worn := newBackupSearch(items), newBackupSearch(items)
	worn.pairs, worn.runs = math.MaxUint32, math.MaxUint32 // both wrap on first use
	for i := range worn.used {
		worn.used[i] = 1
	}
	for i := range worn.seen {
		worn.seen[i] = 1
	}
	for _, k := range sortedKeys(r.routes) {
		want, got := make([]Path, 3), make([]Path, 3)
		fresh.pair(r.routes[k], want)
		worn.pair(r.routes[k], got)
		if !slices.EqualFunc(got, want, Path.Equal) {
			t.Fatalf("pair (%d,%d) at stamps %d/%d: backups %v, fresh worker %v", k.u, k.v, worn.pairs, worn.runs, got, want)
		}
	}
}

func TestEntriesAtMatchesTotal(t *testing.T) {
	g := gen.Petersen()
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	plain := FailoverFromRouting(r)
	sum := 0
	for v := 0; v < g.N(); v++ {
		sum += plain.EntriesAt(v)
	}
	if sum != plain.Entries() {
		t.Fatalf("per-node sum %d vs total %d", sum, plain.Entries())
	}
	if plain.EntriesAt(-1) != 0 || plain.EntriesAt(g.N()) != 0 {
		t.Fatal("out-of-range EntriesAt should be 0")
	}
	m, err := Reinforce(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	fo := CompileFailover(m)
	sum = 0
	for v := 0; v < g.N(); v++ {
		sum += fo.EntriesAt(v)
	}
	if sum != fo.Entries() {
		t.Fatalf("failover per-node sum %d vs total %d", sum, fo.Entries())
	}
	if len(fo.Pairs()) != g.N()*(g.N()-1) {
		t.Fatalf("pairs = %d", len(fo.Pairs()))
	}
}

func TestFaultSetNormalizesLinks(t *testing.T) {
	f := NewFaultSet(4)
	f.FailLink(3, 1)
	if !f.LinkFaulty(1, 3) || !f.LinkFaulty(3, 1) {
		t.Fatal("link fault not normalized")
	}
	f.RepairLink(1, 3)
	if f.LinkFaulty(3, 1) {
		t.Fatal("repair missed the normalized key")
	}
	f2 := FaultSetOf(4, []int{2}, []EdgeFault{{U: 3, V: 0}})
	if !f2.NodeFaulty(2) || !f2.LinkFaulty(0, 3) {
		t.Fatal("FaultSetOf wrong")
	}
	links := f2.LinkFaults()
	if len(links) != 1 || links[0] != (EdgeFault{U: 0, V: 3}) {
		t.Fatalf("LinkFaults = %v", links)
	}
	if f2.NodeFaults().Count() != 1 {
		t.Fatal("NodeFaults wrong")
	}
}

// mapRuleEntries rebuilds the ranked entries of every (at, src, dst)
// decision of a route set with the map rule the compiled layout must
// reproduce: the pair's routes in rank order each contribute their next
// hop at every node they traverse, unless the node already ranks it.
func mapRuleEntries(n int, routes func(u, v int) []Path) map[[3]int][]int32 {
	next := make(map[[3]int][]int32)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			for _, p := range routes(u, v) {
				for i := 0; i+1 < len(p); i++ {
					key := [3]int{p[i], u, v}
					if !slices.Contains(next[key], int32(p[i+1])) {
						next[key] = append(next[key], int32(p[i+1]))
					}
				}
			}
		}
	}
	return next
}

// checkAgainstMapRule compares compiled tables with mapRuleEntries of
// their routes, decision by decision, and checks the layout's own
// invariants.
func checkAgainstMapRule(t *testing.T, name string, ft *FailoverTables, n int, routes func(u, v int) []Path) {
	t.Helper()
	want := mapRuleEntries(n, routes)
	perNode, maxRank := make([]int, n), 0
	for key, ranked := range want {
		perNode[key[0]]++
		maxRank = max(maxRank, len(ranked))
	}
	for at := 0; at < n; at++ {
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got, w := ft.NextRanked(at, u, v), want[[3]int{at, u, v}]; !slices.Equal(got, w) {
					t.Fatalf("%s: NextRanked(%d, %d, %d) = %v, map rule %v", name, at, u, v, got, w)
				}
			}
		}
		if ft.EntriesAt(at) != perNode[at] {
			t.Fatalf("%s: EntriesAt(%d) = %d, map rule %d", name, at, ft.EntriesAt(at), perNode[at])
		}
	}
	if ft.Entries() != len(want) || ft.MaxRank() != maxRank {
		t.Fatalf("%s: Entries %d MaxRank %d, map rule %d and %d", name, ft.Entries(), ft.MaxRank(), len(want), maxRank)
	}
	var pairs [][2]int32
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if len(routes(u, v)) > 0 {
				pairs = append(pairs, [2]int32{int32(u), int32(v)})
			}
		}
	}
	if !slices.Equal(ft.Pairs(), pairs) {
		t.Fatalf("%s: Pairs %v, want %v", name, ft.Pairs(), pairs)
	}
	lay := ft.Layout()
	if len(lay.EntOff) != len(pairs)+1 || lay.EntOff[0] != 0 || int(lay.EntOff[len(pairs)]) != len(lay.EntAt) ||
		len(lay.HopOff) != len(lay.EntAt)+1 || lay.HopOff[0] != 0 || int(lay.HopOff[len(lay.EntAt)]) != len(lay.Hops) {
		t.Fatalf("%s: layout bounds: %d pairs, EntOff %d, EntAt %d, HopOff %d, Hops %d",
			name, len(pairs), len(lay.EntOff), len(lay.EntAt), len(lay.HopOff), len(lay.Hops))
	}
	for p := range pairs {
		for e := lay.EntOff[p] + 1; e < lay.EntOff[p+1]; e++ {
			if lay.EntAt[e] <= lay.EntAt[e-1] {
				t.Fatalf("%s: pair %v: entry nodes %v not strictly increasing", name, pairs[p], lay.EntAt[lay.EntOff[p]:lay.EntOff[p+1]])
			}
		}
	}
	for e := range lay.EntAt {
		ranked := lay.Ranked(int32(e))
		if lay.HopOff[e+1] < lay.HopOff[e] || len(ranked) == 0 {
			t.Fatalf("%s: entry %d: HopOff %d..%d", name, e, lay.HopOff[e], lay.HopOff[e+1])
		}
		for i, h := range ranked {
			if slices.Contains(ranked[:i], h) {
				t.Fatalf("%s: entry %d ranks hop %d twice: %v", name, e, h, ranked)
			}
		}
	}
	// Every hop points at the pair's entry at its target: the one Entry
	// finds, and one exactly when the map rule has an entry there.
	if len(lay.HopEnt) != len(lay.Hops) {
		t.Fatalf("%s: %d hop pointers for %d hops", name, len(lay.HopEnt), len(lay.Hops))
	}
	for p, pr := range pairs {
		for h := lay.HopOff[lay.EntOff[p]]; h < lay.HopOff[lay.EntOff[p+1]]; h++ {
			to, e := lay.Hops[h], lay.HopEnt[h]
			_, held := want[[3]int{int(to), int(pr[0]), int(pr[1])}]
			if e != lay.Entry(int32(p), to) || held != (e >= 0) || held && lay.EntAt[e] != to {
				t.Fatalf("%s: pair %v: hop %d to %d points at entry %d, Entry %d, map rule holds one: %v",
					name, pr, h, to, e, lay.Entry(int32(p), to), held)
			}
		}
	}
}

// TestCompiledLayoutMatchesMapRule checks the compile against an
// independent rule, not against another reader of the same arrays, hop
// pointers included: rank 1 tables and Reinforce(r, 1..3) tables on a
// few fuzzGraph shapes, plus a hand-built multirouting whose routes
// share a (node, next hop) pair — which Reinforce, whose backups avoid
// the links of the earlier routes, never produces — and visit nodes out
// of id order.
func TestCompiledLayoutMatchesMapRule(t *testing.T) {
	for _, shape := range []struct {
		n     int
		extra uint64
	}{{5, 0}, {7, 0x5a}, {9, 0x5a5a}, {12, 0xffff_ffff}} {
		g := fuzzGraph(shape.n, shape.extra)
		r, err := ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("fuzzGraph(%d, %#x)", shape.n, shape.extra)
		checkAgainstMapRule(t, name+" rank 1", FailoverFromRouting(r), g.N(), func(u, v int) []Path {
			if p, ok := r.Get(u, v); ok {
				return []Path{p}
			}
			return nil
		})
		for backups := 1; backups <= 3; backups++ {
			m, err := Reinforce(r, backups)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstMapRule(t, fmt.Sprintf("%s reinforced %d", name, backups), CompileFailover(m), g.N(), m.Get)
		}
	}
	g := diamondGraph(t)
	m := NewMulti(g, 3, false)
	for _, p := range []Path{
		{0, 1, 3}, {0, 1, 2, 3}, {0, 2, 3}, // 0 ranks 1 twice; 1 ranks 3 before 2
		{3, 2, 0}, {3, 1, 0}, {3, 2, 1, 0}, // 3 ranks 2 twice; 2 ranks 0 before 1
		{2, 1, 0}, {2, 3, 1, 0}, // 1 ranks 0 twice
	} {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	ft := CompileFailover(m)
	checkAgainstMapRule(t, "shared hops", ft, g.N(), m.Get)
	if got := ft.NextRanked(0, 0, 3); !slices.Equal(got, []int32{1, 2}) {
		t.Fatalf("NextRanked(0, 0, 3) = %v, want [1 2]", got)
	}
	// One pair with 25 routes on K7: a 70-step run, long enough that a
	// general-purpose unstable sort reorders the steps at a node.
	k7, err := gen.Complete(7)
	if err != nil {
		t.Fatal(err)
	}
	m = NewMulti(k7, 0, false)
	for x := 5; x >= 1; x-- {
		if err := m.Add(Path{0, x, 6}); err != nil {
			t.Fatal(err)
		}
		for y := 1; y <= 5; y++ {
			if y != x {
				if err := m.Add(Path{0, x, y, 6}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	checkAgainstMapRule(t, "long run", CompileFailover(m), k7.N(), m.Get)
}
