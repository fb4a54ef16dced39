package eval

import (
	"fmt"
	"maps"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/eval/oracle"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// boundedSources builds the equivalence anchors the branch-and-bound
// search is pinned against: a cycle edge routing, a hypercube edge
// routing, paper constructions on CCC(3), and a shortest-path routing
// on a seeded random graph. The circular routing at t = κ−1 has the
// hub-and-spoke, diameter-2 shape of the benchmark routings (hubs of
// in-degree 22 of 24), where the kernel's radius-0 and radius-1 skip
// balls fire; CCC(3)'s neighborhood set is too small for the default
// K = 2t+1, so it uses MinimalK.
func boundedSources(t *testing.T) map[string]*routing.Routing {
	t.Helper()
	srcs := make(map[string]*routing.Routing)

	srcs["c9-edge"] = cycleRouting(t, 9)

	q3, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	srcs["q3-edge"] = edgeRoutingOn(t, q3)

	ccc, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	cccr, _, err := core.Circular(ccc, core.Options{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs["ccc3-circular"] = cccr
	hub, _, err := core.Circular(ccc, core.Options{MinimalK: true})
	if err != nil {
		t.Fatal(err)
	}
	srcs["ccc3-circular-t2"] = hub

	rg, _, err := gen.GnpConnected(13, 0.3, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := routing.ShortestPath(rg)
	if err != nil {
		t.Fatal(err)
	}
	srcs["gnp13-sp"] = sp

	return srcs
}

// TestBoundedMatchesOracle pins the branch-and-bound node-fault search
// to the rebuild-per-set oracle bit for bit — score, taxonomy,
// Evaluated, and the first-max witness — across fault budgets and
// worker counts, exhaustive and in Sampled+Greedy mode.
func TestBoundedMatchesOracle(t *testing.T) {
	for name, s := range boundedSources(t) {
		for _, f := range []int{1, 2} {
			ex := Config{Mode: Exhaustive}
			want := fromOracle(oracle.MaxDiameter(s, f, oc(ex)))
			sameResult(t, fmt.Sprintf("%s f=%d serial", name, f), MaxDiameter(s, f, ex), want)
			for _, workers := range []int{1, 2, 8} {
				got := MaxDiameterParallel(s, f, ex, workers)
				sameResult(t, fmt.Sprintf("%s f=%d w=%d", name, f, workers), got, want)
			}
			cfg := Config{Mode: Sampled, Samples: 15, Seed: int64(f), Greedy: true}
			want = fromOracle(oracle.MaxDiameter(s, f, oc(cfg)))
			for _, workers := range []int{2, 8} {
				got := MaxDiameterParallel(s, f, cfg, workers)
				sameResult(t, fmt.Sprintf("%s f=%d sampled+greedy w=%d", name, f, workers), got, want)
			}
			for d := 0; d <= 8; d++ {
				got := CheckTolerance(s, d, f, ex)
				if wantErr := oracle.CheckTolerance(s, d, f, oc(ex)); (got == nil) != (wantErr == nil) {
					t.Fatalf("%s (d=%d,f=%d): err=%v, oracle err=%v", name, d, f, got, wantErr)
				}
			}
		}
	}
}

// TestBoundedMatchesOracleMixed is TestBoundedMatchesOracle over the
// mixed node+edge fault universe.
func TestBoundedMatchesOracleMixed(t *testing.T) {
	for name, s := range boundedSources(t) {
		for _, f := range []int{1, 2} {
			ex := Config{Mode: Exhaustive}
			plain := oracle.MaxDiameterMixed(s, f, oc(ex))
			want := fromOracleMixed(plain)
			sameMixedResult(t, fmt.Sprintf("%s f=%d serial", name, f), MaxDiameterMixed(s, f, ex), want)
			for _, workers := range []int{1, 2, 8} {
				got := MaxDiameterMixedParallel(s, f, ex, workers)
				sameMixedResult(t, fmt.Sprintf("%s f=%d w=%d", name, f, workers), got, want)
			}
			cfg := Config{Mode: Sampled, Samples: 15, Seed: int64(f), Greedy: true}
			want = fromOracleMixed(oracle.MaxDiameterMixed(s, f, oc(cfg)))
			for _, workers := range []int{2, 8} {
				got := MaxDiameterMixedParallel(s, f, cfg, workers)
				sameMixedResult(t, fmt.Sprintf("%s f=%d sampled+greedy w=%d", name, f, workers), got, want)
			}
			for d := 0; d <= 8; d++ {
				got := CheckToleranceMixed(s, d, f, ex)
				if violated := plain.Disconnected || plain.MaxDiameter > d; (got != nil) != violated {
					t.Fatalf("%s (d=%d,f=%d): err=%v, oracle worst %v", name, d, f, got, plain)
				}
			}
		}
	}
}

// TestBoundedProfileMatchesOracle pins the exact-k profiles to the
// oracle's on both universes, exhaustive and sampled+greedy, at 1, 2
// and 8 workers. Every source disconnects at three node faults, so f = 3
// exercises the per-size freeze and the units' rerun; the mixed
// universe stops at f = 2 to keep the oracle's sweep short.
func TestBoundedProfileMatchesOracle(t *testing.T) {
	for name, s := range boundedSources(t) {
		for _, cfg := range []Config{{Mode: Exhaustive}, {Mode: Sampled, Samples: 15, Seed: 3, Greedy: true}} {
			node, mixed := oracle.Profile(s, 3, oc(cfg)), oracle.ProfileMixed(s, 2, oc(cfg))
			if cfg.Mode == Exhaustive && node[3] != -1 {
				t.Fatalf("%s: oracle profile %v does not disconnect at f = 3", name, node)
			}
			for _, workers := range []int{1, 2, 8} {
				if got := profile(s, 3, cfg, workers, false); !slices.Equal(got, node) {
					t.Fatalf("%s mode=%d w=%d: profile %v != oracle %v", name, cfg.Mode, workers, got, node)
				}
				if got := profile(s, 2, cfg, workers, true); !slices.Equal(got, mixed) {
					t.Fatalf("%s mode=%d w=%d: mixed profile %v != oracle %v", name, cfg.Mode, workers, got, mixed)
				}
			}
			if got := Profile(s, 3, cfg); !slices.Equal(got, node) {
				t.Fatalf("%s mode=%d: Profile %v != oracle %v", name, cfg.Mode, got, node)
			}
			if got := ProfileMixed(s, 2, cfg); !slices.Equal(got, mixed) {
				t.Fatalf("%s mode=%d: ProfileMixed %v != oracle %v", name, cfg.Mode, got, mixed)
			}
		}
	}
}

// sizeRange runs the exhaustive walk over the sets of size lo..hi of
// src's node universe, or node+link universe with links, on workers
// workers. It also returns the universe's size.
func sizeRange(src RouteSource, lo, hi, workers int, links bool) (MixedResult, int) {
	s, _ := diameterSearch(src, hi, workers, links)
	s.lo, s.hi = lo, hi
	var b best[int]
	s.exhaustive(&b)
	return s.root.result(b), len(s.items)
}

// TestExhaustiveSizeRanges pins the fanned-out walk over set sizes
// lo..hi, which Profile runs with lo = hi = k, to the serial walk: the
// score, the pre-freeze diameter, the witness and Evaluated, which
// counts every set of size lo..hi, those of frozen units included.
func TestExhaustiveSizeRanges(t *testing.T) {
	for name, s := range boundedSources(t) {
		for _, links := range []bool{false, true} {
			for _, r := range [][2]int{{1, 1}, {2, 2}, {3, 3}, {1, 3}, {2, 3}} {
				want, items := sizeRange(s, r[0], r[1], 1, links)
				if n := countRange(items, r[0], r[1]); want.Evaluated != n {
					t.Fatalf("%s links=%v sizes %d..%d: serial walk evaluated %d sets, want %d", name, links, r[0], r[1], want.Evaluated, n)
				}
				for _, workers := range []int{2, 8} {
					got, _ := sizeRange(s, r[0], r[1], workers, links)
					sameMixedResult(t, fmt.Sprintf("%s links=%v sizes %d..%d w=%d", name, links, r[0], r[1], workers), got, want)
				}
			}
		}
	}
}

// TestDiameterAboveAgreesWithDiameter sweeps the bound across the true
// diameter and checks the three-way verdict of the pivot-pruned kernel
// on random fault sets, drawn from one rng per source so that a failure
// reproduces whatever the map order: above=true must report the exact
// diameter, above=false certifies diameter ≤ bound, and disconnection
// matches. The reference is the materialized surviving graph's Digraph
// diameter, which shares no code with the Engine's BFS.
func TestDiameterAboveAgreesWithDiameter(t *testing.T) {
	for name, s := range boundedSources(t) {
		rng := rand.New(rand.NewSource(11))
		eng := NewEngine(s)
		n := s.Graph().N()
		for trial := 0; trial < 30; trial++ {
			faults := drawFaults(rng, n, rng.Intn(n/2+1))
			eng.SetFaults(faults)
			if eng.AliveCount() <= 1 {
				continue
			}
			d, conn := s.SurvivingGraph(faults).Diameter()
			for bound := -1; bound <= d+2; bound++ {
				got, above, gConn := eng.diameterAbove(bound)
				if gConn != conn {
					t.Fatalf("%s trial %d bound %d: connected %v != %v", name, trial, bound, gConn, conn)
				}
				if !conn {
					break
				}
				if bound < d {
					if !above || got != d {
						t.Fatalf("%s trial %d bound %d: got (%d,%v), want exact %d", name, trial, bound, got, above, d)
					}
				} else if above {
					t.Fatalf("%s trial %d bound %d: spurious above with diameter %d", name, trial, bound, d)
				}
			}
		}
	}
}

// checkSkipSet runs the serial kernel on e's current faults at bound,
// as diameterAbove does (pivot phase, skip set, source loop), and checks
// the skip set twice: as first built, and as the source loop leaves it.
// Every alive source in it must reach every alive node with an exact
// eccentricity at most the limit the set was built for. It returns how
// many sources of the finished set lie in no pivot's reverse ball,
// measured from their own distances: the sources only the shared covers
// skip. Sets that leave one node alive, or that the dense kernel
// scores, are not checked.
func checkSkipSet(t *testing.T, name string, e *Engine, bound int) int {
	t.Helper()
	if e.AliveCount() <= 1 || e.dense() {
		return 0
	}
	p, worst, ok := e.pivot()
	if !ok {
		return 0
	}
	check := func(stage string, limit int) []int {
		t.Helper()
		var skipped []int
		for v := 0; v < e.N(); v++ {
			if !e.HasFault(v) && e.skip[v>>6]&(1<<(uint(v)&63)) != 0 {
				skipped = append(skipped, v)
			}
		}
		for _, v := range skipped {
			if ecc, ok := e.eccentricity(v); !ok || ecc > limit {
				t.Fatalf("%s F=%v bound %d: the %s skip set holds %d, eccentricity (%d, %v) at limit %d",
					name, e.faults.Elements(), bound, stage, v, ecc, ok, limit)
			}
		}
		return skipped
	}
	e.skipSet(&p, max(worst, bound))
	check("first", max(worst, bound))
	if worst, ok = e.sources(&p, worst, bound); !ok {
		return 0
	}
	limit := max(worst, bound)
	beyond := 0
	dist := make([]int, e.N())
	for _, v := range check("finished", limit) {
		e.DistancesFrom(v, dist)
		inBall := false
		for h := 0; h < p.k; h++ {
			if d := dist[p.node[h]]; d != graph.Unreachable && d <= limit-p.ecc[h] {
				inBall = true
			}
		}
		if !inBall {
			beyond++
		}
	}
	return beyond
}

// TestSkipSetIsSound pins the skip set of the branch-and-bound kernel
// itself (checkSkipSet), at every bound from −1 to 4, on random node,
// link and mixed fault sets of size ≤ 2, seeded per source. A source
// skipped wrongly changes a score only when it alone would beat the
// limit, which the scoring tests rarely meet: measuring some pivots' far
// sets one level too far passes every one of them. The sources are
// boundedSources,
// the circular routings of CCC(4) and CCC(5) with Options{} (t = κ−1,
// the hub-and-spoke shape of the benchmark routings, where the shared
// covers fire) and core.Auto's routing of seeded fuzz graphs. On CCC(4)
// the shared covers must skip some source that no ball holds.
func TestSkipSetIsSound(t *testing.T) {
	type source struct {
		name string
		s    RouteSource
	}
	var srcs []source
	bounded := boundedSources(t)
	for _, name := range slices.Sorted(maps.Keys(bounded)) {
		srcs = append(srcs, source{name, bounded[name]})
	}
	for _, k := range []int{4, 5} {
		g, err := gen.CCC(k)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := core.Circular(g, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, source{fmt.Sprintf("ccc%d-circular", k), r})
	}
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := fuzzCutGraph(4+rng.Intn(9), rng.Uint64())
		if plan, err := core.Auto(g, core.Options{}); err == nil {
			srcs = append(srcs, source{fmt.Sprintf("auto-%d", i), plan.Routing})
		}
	}
	beyond := make(map[string]int)
	for _, src := range srcs {
		rng := rand.New(rand.NewSource(31))
		eng := NewEngine(src.s)
		n, m := eng.N(), eng.items.M()
		for trial := 0; trial < 25; trial++ {
			var items []int
			switch size := 1 + rng.Intn(2); {
			case trial == 0: // the empty set
			case trial%3 == 0: // nodes
				items = rng.Perm(n)[:size]
			case trial%3 == 1: // links
				for _, i := range rng.Perm(m)[:size] {
					items = append(items, n+i)
				}
			default: // a node and a link
				items = []int{rng.Intn(n), n + rng.Intn(m)}
			}
			eng.Reset()
			for _, it := range items {
				eng.toggle(it, true)
			}
			for bound := -1; bound <= 4; bound++ {
				beyond[src.name] += checkSkipSet(t, src.name, eng, bound)
			}
		}
	}
	if beyond["ccc4-circular"] == 0 {
		t.Fatal("ccc4-circular: the shared covers skipped no source beyond the balls")
	}
}

// TestDiameterParallelMatchesDiameter checks the deprecated
// DiameterParallel, the kernel at bound −1, against the materialized
// surviving graph on random fault sets.
func TestDiameterParallelMatchesDiameter(t *testing.T) {
	for name, s := range boundedSources(t) {
		rng := rand.New(rand.NewSource(17))
		eng := NewEngine(s)
		n := s.Graph().N()
		for trial := 0; trial < 30; trial++ {
			faults := drawFaults(rng, n, rng.Intn(n/2+1))
			eng.SetFaults(faults)
			d, conn := s.SurvivingGraph(faults).Diameter()
			if dp, cp := eng.DiameterParallel(2); cp != conn || (conn && dp != d) {
				t.Fatalf("%s trial %d: DiameterParallel (%d,%v), surviving graph (%d,%v)",
					name, trial, dp, cp, d, conn)
			}
		}
	}
}

// recorder is a stub evaluator that records the thresholds it was last
// asked to score against.
type recorder struct{ bound, tie int }

func (r *recorder) toggle(int, bool)                {}
func (r *recorder) clone() *recorder                { return &recorder{} }
func (r *recorder) reset()                          {}
func (r *recorder) score(bound, tie int) int        { r.bound, r.tie = bound, tie; return 0 }
func (r *recorder) probe(_ int, bound, tie int) int { return r.score(bound, tie) }
func (r *recorder) better(a, b int) bool            { return a > b }
func (r *recorder) final(int) bool                  { return false }

// TestScoreAgainstIsPositionAware pins the tie rule of parallel
// searches: a unit after the one that reached the shared incumbent
// scores against the incumbent itself, while that unit, earlier units
// and the root keep ties with it exact. A tie from an earlier unit
// takes the mark over; one from a later unit does not.
func TestScoreAgainstIsPositionAware(t *testing.T) {
	s := newSearch[*recorder, int](&recorder{}, nil, 2)
	s.raise(s.shared, 5, 3)
	for _, c := range []struct{ unit, bound, tie int }{
		{-1, 1, 5}, {2, 1, 5}, {3, 1, 5}, {4, 5, 0},
	} {
		w := &worker[*recorder]{ev: &recorder{}, unit: c.unit}
		s.scoreAgainst(w, s.shared, 1)
		if w.ev.bound != c.bound || w.ev.tie != c.tie {
			t.Errorf("unit %d scored against (%d, %d), want (%d, %d)", c.unit, w.ev.bound, w.ev.tie, c.bound, c.tie)
		}
	}
	for _, c := range []struct {
		score, unit int
		want        mark[int]
	}{
		{5, 7, mark[int]{5, 3}}, // a later tie keeps the mark
		{5, 1, mark[int]{5, 1}}, // an earlier tie takes it over
		{6, 9, mark[int]{6, 9}}, // a better score moves it
		{4, 0, mark[int]{6, 9}}, // a worse one never does
	} {
		s.raise(s.shared, c.score, c.unit)
		if got := s.shared.load(); got != c.want {
			t.Errorf("after raise(%d, unit %d): mark %v, want %v", c.score, c.unit, got, c.want)
		}
	}
}

// TestCountSetsMatchesEnumeration checks the closed-form subtree-size
// formulas the freeze-skip fast path uses against brute force.
func TestCountSetsMatchesEnumeration(t *testing.T) {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 1; i <= k; i++ {
			r = r * (n - k + i) / i
		}
		return r
	}
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			if got := countChoose(n, k); got != binom(n, k) {
				t.Fatalf("countChoose(%d,%d) = %d, want %d", n, k, got, binom(n, k))
			}
		}
		for left := 0; left <= 5; left++ {
			want := 0
			for s := 1; s <= left; s++ {
				want += binom(n, s)
			}
			if got := countRange(n, 1, left); got != want {
				t.Fatalf("countRange(%d,1,%d) = %d, want %d", n, left, got, want)
			}
		}
	}
}

// TestCountSetsSaturate checks the count arithmetic against math/big
// past int64: counts that fit are exact, larger ones saturate at
// math.MaxInt instead of wrapping. C(5000, 6) ≈ 2.2e22 is the ROADMAP
// anchor; around C(66, 33) the old running product overflowed first.
func TestCountSetsSaturate(t *testing.T) {
	saturated := func(b *big.Int) int {
		if !b.IsInt64() || b.Int64() > math.MaxInt {
			return math.MaxInt
		}
		return int(b.Int64())
	}
	var cases [][2]int
	for k := 0; k <= 8; k++ {
		cases = append(cases, [2]int{5000, k}, [2]int{5000, 5000 - k})
	}
	for n := 60; n <= 70; n++ {
		for k := 0; k <= n; k++ {
			cases = append(cases, [2]int{n, k})
		}
	}
	for _, c := range cases {
		if got, want := countChoose(c[0], c[1]), saturated(new(big.Int).Binomial(int64(c[0]), int64(c[1]))); got != want {
			t.Errorf("countChoose(%d, %d) = %d, want %d", c[0], c[1], got, want)
		}
	}
	for f := 1; f <= 7; f++ {
		sum := new(big.Int)
		for s := 1; s <= f; s++ {
			sum.Add(sum, new(big.Int).Binomial(5000, int64(s)))
		}
		if got, want := countRange(5000, 1, f), saturated(sum); got != want {
			t.Errorf("countRange(5000, 1, %d) = %d, want %d", f, got, want)
		}
	}
	if countRange(5000, 1, 6) != math.MaxInt {
		t.Error("countRange(5000, 1, 6) does not saturate")
	}
	if got := satAdd(math.MaxInt-1, 2); got != math.MaxInt {
		t.Errorf("satAdd overflowed to %d", got)
	}
}

// TestBoundedGreedyDisconnection covers the greedy probe shortcut: on
// a fragile routing where single faults disconnect, the parallel
// greedy adversary (which now probes through diameterAbove with a
// minimal-disconnecting-item shortcut) must match the serial one.
func TestBoundedGreedyDisconnection(t *testing.T) {
	frag := graph.New(8)
	for i := 0; i < 8; i++ {
		frag.MustAddEdge(i, (i+1)%8)
	}
	s := newSingleRouteRouting(t, frag)
	cfg := Config{Mode: Sampled, Samples: 20, Seed: 5, Greedy: true}
	want := MaxDiameter(s, 3, cfg)
	for _, workers := range []int{2, 8} {
		got := MaxDiameterParallel(s, 3, cfg, workers)
		sameResult(t, fmt.Sprintf("fragile greedy w=%d", workers), got, want)
	}
}
