package routing_test

import (
	"fmt"
	"runtime"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
	"ftroute/internal/routing/oracle"
)

// reinforceGraphs builds one graph of every internal/gen family, most
// with more pairs than one worker's block, among them sparse graphs
// whose residual graph disconnects a pair after its primary (a path, a
// tree, a star, a barbell's bridge) or after one backup (a cycle), and
// a G(n, p) graph too sparse to be connected.
func reinforceGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	must := func(g *graph.Graph, err error) *graph.Graph {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	connected := func(g *graph.Graph, _ int64, err error) *graph.Graph { return must(g, err) }
	return map[string]*graph.Graph{
		"complete:6":     must(gen.Complete(6)),
		"path:9":         must(gen.Path(9)),
		"cycle:11":       must(gen.Cycle(11)),
		"star:7":         must(gen.Star(7)),
		"grid:4x5":       must(gen.Grid(4, 5)),
		"torus:5x6":      must(gen.Torus(5, 6)),
		"hypercube:5":    must(gen.Hypercube(5)),
		"ccc:3":          must(gen.CCC(3)),
		"butterfly:3":    must(gen.WrappedButterfly(3)),
		"debruijn:4":     must(gen.DeBruijn(4)),
		"circulant:12":   must(gen.Circulant(12, []int{1, 3})),
		"harary:4x11":    must(gen.Harary(4, 11)),
		"petersen":       gen.Petersen(),
		"octahedron":     gen.Octahedron(),
		"icosahedron":    gen.Icosahedron(),
		"wheel:8":        must(gen.Wheel(8)),
		"gp:9x2":         must(gen.GeneralizedPetersen(9, 2)),
		"prism:6":        must(gen.Prism(6)),
		"bipartite:3x4":  must(gen.CompleteBipartite(3, 4)),
		"tree:2x3":       must(gen.BalancedTree(2, 3)),
		"barbell:4x2":    must(gen.Barbell(4, 2)),
		"gnp:40:0.05:7":  must(gen.Gnp(40, 0.05, 7)),
		"gnp:24:0.2:3":   connected(gen.GnpConnected(24, 0.2, 3, 100)),
		"regular:36:3:2": must(gen.RandomRegular(36, 3, 2)),
		"regular:20:4:5": connected(gen.RandomRegularConnected(20, 4, 5, 100)),
	}
}

// sourceTrees returns a unidirectional routing: the route of (u, v) is
// the path to v in u's BFS tree with smallest-id tie-breaking, so for
// u > v it is not, in general, the reverse of the route of (v, u).
func sourceTrees(t *testing.T, g *graph.Graph) *routing.Routing {
	t.Helper()
	r := routing.New(g)
	for u := 0; u < g.N(); u++ {
		parent := make([]int, g.N())
		for i := range parent {
			parent[i] = -2
		}
		parent[u] = -1
		queue := []int{u}
		for head := 0; head < len(queue); head++ {
			for _, y := range g.Neighbors(queue[head]) {
				if parent[y] == -2 {
					parent[y] = queue[head]
					queue = append(queue, y)
				}
			}
		}
		for v := 0; v < g.N(); v++ {
			if v == u || parent[v] == -2 {
				continue
			}
			rev := routing.Path{v}
			for x := v; parent[x] >= 0; x = parent[x] {
				rev = append(rev, parent[x])
			}
			if err := r.Set(rev.Reversed()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}

// TestReinforceMatchesOracle pins Reinforce to the reference of package
// oracle — a map of used links and a fresh BFS per backup, one pair at
// a time — on every generator family, on a bidirectional and a
// unidirectional routing, for 0 to 3 backups and at 1, 2 and 4 workers:
// the same routes in the same order for every pair, and the same error.
func TestReinforceMatchesOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for name, g := range reinforceGraphs(t) {
		sp, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range []struct {
			kind string
			r    *routing.Routing
		}{{"bidirectional", sp}, {"source trees", sourceTrees(t, g)}} {
			for backups := 0; backups <= 3; backups++ {
				want, wantErr := oracle.Reinforce(rc.r, backups)
				for _, procs := range []int{1, 2, 4} {
					runtime.GOMAXPROCS(procs)
					got, err := routing.Reinforce(rc.r, backups)
					what := fmt.Sprintf("%s, %s routing, %d backups, GOMAXPROCS %d", name, rc.kind, backups, procs)
					if fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Fatalf("%s: err %v, oracle %v", what, err, wantErr)
					}
					if !got.Equal(want) {
						t.Fatalf("%s: routes differ from the oracle's", what)
					}
					if g.M() == g.N()-1 && got.MaxRoutesPerPair() != 1 {
						t.Fatalf("%s: a tree pair has a backup", what)
					}
				}
			}
		}
	}
}
