package connectivity

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"ftroute/internal/connectivity/oracle"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

func TestDisjointPathsToSetBoundary(t *testing.T) {
	g := mustGen(t)(gen.Cycle(6))
	for _, tc := range []struct {
		name    string
		x       int
		members []int
		k       int
		isRange bool
	}{
		{"negative x", -1, []int{2, 4}, 2, true},
		{"x past n", 6, []int{2, 4}, 2, true},
		{"negative member", 0, []int{2, -1}, 2, true},
		{"member past n", 0, []int{2, 6}, 2, true},
		{"out of range with k 0", 7, nil, 0, true},
		{"repeated member", 0, []int{3, 3}, 2, false},
		{"repeated member, k 1", 0, []int{2, 4, 2}, 1, false},
		{"x is a member", 0, []int{3, 0}, 1, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			paths, err := DisjointPathsToSet(g, tc.x, tc.members, tc.k)
			if err == nil {
				t.Fatalf("got paths %v, want an error", paths)
			}
			if errors.Is(err, graph.ErrNodeRange) != tc.isRange {
				t.Fatalf("error %v: ErrNodeRange = %v, want %v", err, !tc.isRange, tc.isRange)
			}
		})
	}
	// A rejected query leaves a reused Split as it was.
	sp := NewSplit(g)
	want, err := sp.DisjointPathsToSet(0, []int{2, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.DisjointPathsToSet(0, []int{2, 2}, 2); err == nil {
		t.Fatal("repeated member accepted")
	}
	if got, err := sp.DisjointPathsToSet(0, []int{2, 4}, 2); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("after a rejected query: %v %v, want %v", got, err, want)
	}
}

func TestSTQueriesRejectOutOfRange(t *testing.T) {
	g := mustGen(t)(gen.Cycle(6))
	for _, st := range [][2]int{{-1, 3}, {0, 6}, {9, 9}} {
		if _, err := DisjointPaths(g, st[0], st[1], 1); !errors.Is(err, graph.ErrNodeRange) {
			t.Errorf("DisjointPaths%v: %v", st, err)
		}
	}
}

// oracleGraphs are small instances of the families the constructions
// run on.
func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	gs := map[string]*graph.Graph{
		"petersen": gen.Petersen(),
		"ccc3":     mustGen(t)(gen.CCC(3)),
		"ccc4":     mustGen(t)(gen.CCC(4)),
		"q3":       mustGen(t)(gen.Hypercube(3)),
		"q5":       mustGen(t)(gen.Hypercube(5)),
		"cycle9":   mustGen(t)(gen.Cycle(9)),
		"grid3x4":  mustGen(t)(gen.Grid(3, 4)),
		"star6":    mustGen(t)(gen.Star(6)),
		"wheel7":   mustGen(t)(gen.Wheel(7)),
	}
	for seed := int64(1); seed <= 3; seed++ {
		g, _, err := gen.RandomRegularConnected(20, 3, seed, 50)
		gs[fmt.Sprintf("rr20-3-s%d", seed)] = mustGen(t)(g, err)
		g, _, err = gen.RandomRegularConnected(16, 4, seed, 50)
		gs[fmt.Sprintf("rr16-4-s%d", seed)] = mustGen(t)(g, err)
	}
	return gs
}

// TestSplitMatchesOracle runs every query kind on one reused Split per
// graph and asserts the rebuild-per-call oracle's answer, path for path.
func TestSplitMatchesOracle(t *testing.T) {
	for name, g := range oracleGraphs(t) {
		sp := NewSplit(g)
		n := g.N()
		for m := 0; m < n; m++ {
			set := g.Neighbors(m)
			for x := 0; x < n; x++ {
				if x == m || g.HasEdge(x, m) {
					continue
				}
				for k := 1; k <= len(set)+1; k++ {
					got, err := sp.DisjointPathsToSet(x, set, k)
					want, werr := oracle.DisjointPathsToSet(g, x, set, k)
					if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: x=%d set=%v k=%d: split %v (%v), oracle %v (%v)", name, x, set, k, got, err, want, werr)
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			for d := s + 1; d < n; d++ {
				for k := 1; k <= g.Degree(s)+1; k++ {
					got, err := sp.DisjointPaths(s, d, k)
					want, werr := oracle.DisjointPaths(g, s, d, k)
					if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: %d-%d k=%d: split %v (%v), oracle %v (%v)", name, s, d, k, got, err, want, werr)
					}
				}
			}
		}
		k, sep, err := VertexConnectivity(g)
		wk, wsep, ok := oracle.VertexConnectivity(g)
		if k != wk || !reflect.DeepEqual(sep, wsep) || (err == nil) != ok {
			t.Fatalf("%s: κ=%d sep=%v err=%v, oracle κ=%d sep=%v ok=%v", name, k, sep, err, wk, wsep, ok)
		}
	}
}

// FuzzSplitEquivalence decodes a random graph, a source, a member list
// and a path count, and asserts that a reused Split answers like the
// oracle on valid input and returns an error, not a panic, otherwise.
func FuzzSplitEquivalence(f *testing.F) {
	f.Add([]byte{9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 0, 255, 0, 3, 3, 6, 2})
	f.Add([]byte{6, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5, 3, 5, 255, 0, 3, 4, 5, 5, 3})
	f.Add([]byte{5, 0, 1, 1, 2, 255, 9, 2, 1, 200, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%15
		g := graph.New(n)
		rest := data[1:]
		// Edges until a 255 byte, then x, the members and k, where a
		// signed byte lets x and the members fall outside the graph.
		for len(rest) >= 2 && rest[0] != 255 {
			u, v := int(rest[0])%n, int(rest[1])%n
			if u != v {
				_, _ = g.AddEdgeIfAbsent(u, v)
			}
			rest = rest[2:]
		}
		if len(rest) < 3 {
			return
		}
		x, k := int(int8(rest[1]))%(n+2), int(rest[len(rest)-1])%5
		var members []int
		for _, b := range rest[2 : len(rest)-1] {
			members = append(members, int(int8(b))%(n+2))
		}
		valid := x >= 0 && x < n
		seen := map[int]bool{}
		for _, m := range members {
			valid = valid && m >= 0 && m < n && !seen[m]
			seen[m] = true
		}
		sp := NewSplit(g)
		for round := 0; round < 2; round++ { // the second round runs on a restored Split
			got, err := sp.DisjointPathsToSet(x, members, k)
			if !valid {
				if err == nil {
					t.Fatalf("x=%d members=%v: invalid query returned %v", x, members, got)
				}
				continue
			}
			want, werr := oracle.DisjointPathsToSet(g, x, members, k)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d x=%d members=%v k=%d: split %v (%v), oracle %v (%v)", round, x, members, k, got, err, want, werr)
			}
			if len(members) > 0 && members[0] != x {
				s, d := x, members[0]
				got, err := sp.DisjointPaths(s, d, k)
				want, werr := oracle.DisjointPaths(g, s, d, k)
				if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("%d-%d k=%d: split %v (%v), oracle %v (%v)", s, d, k, got, err, want, werr)
				}
			}
		}
	})
}

// kappaGraphs are the graphs of TestVertexConnectivityMatchesOracle:
// 200 seeded sparse connected G(n, p) with n from 40 to 140, whose κ is
// mostly attained by the first probe pair and many after it; 40 graphs
// made of two denser G(n, 0.3) halves joined by one to four random
// edges, so that κ sits below the minimum degree and the first pair
// attaining it may come after many that do not; and ccc:4–6,
// hypercube:6 and torus:6x6.
func kappaGraphs(t *testing.T) map[string]*graph.Graph {
	rng := rand.New(rand.NewSource(34))
	gnp := func(n int, p float64) *graph.Graph {
		g, _, err := gen.GnpConnected(n, p, rng.Int63(), 100)
		return mustGen(t)(g, err)
	}
	gs := map[string]*graph.Graph{
		"ccc4":     mustGen(t)(gen.CCC(4)),
		"ccc5":     mustGen(t)(gen.CCC(5)),
		"ccc6":     mustGen(t)(gen.CCC(6)),
		"q6":       mustGen(t)(gen.Hypercube(6)),
		"torus6x6": mustGen(t)(gen.Torus(6, 6)),
	}
	for i := 0; i < 200; i++ {
		n := 40 + rng.Intn(101)
		p := 1.2*math.Log(float64(n))/float64(n) + 0.04*rng.Float64()
		gs[fmt.Sprintf("gnp%d-n%d", i, n)] = gnp(n, p)
	}
	for i := 0; i < 40; i++ {
		a, b := gnp(25+rng.Intn(26), 0.3), gnp(25+rng.Intn(26), 0.3)
		g := graph.New(a.N() + b.N())
		for _, e := range a.Edges() {
			g.MustAddEdge(e[0], e[1])
		}
		for _, e := range b.Edges() {
			g.MustAddEdge(a.N()+e[0], a.N()+e[1])
		}
		for k := 1 + rng.Intn(4); k > 0; k-- {
			_, _ = g.AddEdgeIfAbsent(rng.Intn(a.N()), a.N()+rng.Intn(b.N()))
		}
		gs[fmt.Sprintf("halves%d-n%d", i, g.N())] = g
	}
	return gs
}

// TestVertexConnectivityMatchesOracle compares κ, the separator and the
// error with the oracle's uncapped serial scan at 1, 2 and 8 workers.
// Every graph has at least 2*jobsPerWorker probe pairs, so with two
// workers or more each block of pairs is scanned on a Split of its own.
func TestVertexConnectivityMatchesOracle(t *testing.T) {
	type answer struct {
		k   int
		sep []int
		ok  bool
	}
	gs := kappaGraphs(t)
	want := map[string]answer{}
	for name, g := range gs {
		pairs := 0
		for range probePairs(g) {
			pairs++
		}
		if pairs < 2*jobsPerWorker {
			t.Fatalf("%s: %d probe pairs, want at least %d", name, pairs, 2*jobsPerWorker)
		}
		k, sep, ok := oracle.VertexConnectivity(g)
		want[name] = answer{k, sep, ok}
	}
	for _, procs := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for name, g := range gs {
				k, sep, err := VertexConnectivity(g)
				if w := want[name]; k != w.k || !reflect.DeepEqual(sep, w.sep) || (err == nil) != w.ok {
					t.Fatalf("%s: κ=%d sep=%v err=%v, oracle κ=%d sep=%v ok=%v", name, k, sep, err, w.k, w.sep, w.ok)
				}
			}
		})
	}
}
