package eval

import (
	"fmt"
	"ftroute/internal/eval/oracle"
	"reflect"
	"slices"
	"testing"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// fuzzCutGraph mirrors the routing package's fuzzGraph: a cycle
// backbone over n nodes plus chords selected by the bits of extra, so
// the corpus explores varied connectivity deterministically.
func fuzzCutGraph(n int, extra uint64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	bit := 0
	for u := 0; u < n && bit < 64; u++ {
		for v := u + 2; v < n && bit < 64; v++ {
			if u == 0 && v == n-1 {
				continue // already a cycle edge
			}
			if extra&(1<<uint(bit)) != 0 {
				g.MustAddEdge(u, v)
			}
			bit++
		}
	}
	return g
}

// FuzzWalkEngineEquivalence pins the incremental WalkEngine to the
// legacy re-walk path on random tables and random fault-toggle
// sequences over both universes: after every single-item toggle (link
// cut, link repair, node fail, node repair) the cached per-pair
// outcomes, stats and walk records (checkWalks) must equal a
// from-scratch mixed-oracle evaluation (Skipped for failed endpoints,
// WalkUnderFaults otherwise), a probe of an item outside the set must
// score the set plus that item and change nothing, and the
// engine-backed budget-1 exhaustive adversaries — link-only and mixed —
// must reproduce their legacy searches exactly. This is the
// invalidation-correctness property the engine's speed rests on (only
// pairs whose walk touched a toggled item are re-walked, from the first
// step it touched).
func FuzzWalkEngineEquivalence(f *testing.F) {
	f.Add(uint8(6), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(10), uint64(0x5a5a), uint64(0x11), uint64(0b1010), uint64(0x9))
	f.Add(uint8(12), uint64(0xffff), uint64(0xf0f0), uint64(0x3), uint64(0x41))
	f.Fuzz(func(t *testing.T, nRaw uint8, extra, cutBits, repairBits, nodeBits uint64) {
		n := 4 + int(nRaw)%9 // 4..12 nodes
		g := fuzzCutGraph(n, extra)
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := routing.Reinforce(r, 1+int(extra)%2)
		if err != nil {
			t.Fatal(err)
		}
		ft := routing.CompileFailover(m)
		we := NewWalkEngine(ft, g)
		edges := g.Edges()

		cut := map[int]bool{}
		down := map[int]bool{}
		universe, probes := we.faults.Cap(), 0
		check := func(stage string) {
			var cuts []routing.EdgeFault
			for i, e := range edges {
				if cut[i] {
					cuts = append(cuts, routing.EdgeFault{U: e[0], V: e[1]})
				}
			}
			var nodes []int
			for v := 0; v < n; v++ {
				if down[v] {
					nodes = append(nodes, v)
				}
			}
			faults := routing.FaultSetOf(n, nodes, cuts)
			if got, want := we.Stats(), EvaluateMixedFaults(ft, nodes, cuts); got != want {
				t.Fatalf("%s: engine stats %v, legacy %v (F %v E %v)", stage, got, want, nodes, cuts)
			}
			for i, p := range ft.Pairs() {
				want := routing.Skipped
				if !faults.NodeFaulty(int(p[0])) && !faults.NodeFaulty(int(p[1])) {
					want = ft.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome
				}
				if got := we.Outcome(i); got != want {
					t.Fatalf("%s: pair (%d,%d) engine %v, legacy %v (F %v E %v)", stage, p[0], p[1], got, want, nodes, cuts)
				}
			}
			checkWalks(t, stage, we, ft, faults)

			// Probe two items the set does not hold, one rotating over the
			// universe and one drawn by the fuzzer: each must score the set
			// plus the item and leave the engine as it was.
			before := snapshotWalks(we)
			for _, it := range []int{probes % universe, int((extra >> (probes % 32)) % uint64(universe))} {
				probes += 7
				if we.faults.Has(it) {
					continue
				}
				pn, pc := nodes, cuts
				if it < n {
					pn = append(slices.Clone(nodes), it)
				} else {
					u, v, _ := we.items.Ends(it)
					pc = append(slices.Clone(cuts), routing.EdgeFault{U: u, V: v})
				}
				if got, want := we.probe(it, walkScore{}, walkScore{}).stats, EvaluateMixedFaults(ft, pn, pc); got != want {
					t.Fatalf("%s: probe(%d) scores %v, legacy %v (F %v E %v)", stage, it, got, want, nodes, cuts)
				}
				checkUnchanged(t, fmt.Sprintf("%s after probing %d", stage, it), we, before)
			}
		}

		check("initial")
		for i := 0; i < len(edges) && i < 64; i++ {
			if cutBits&(1<<uint(i)) == 0 {
				continue
			}
			we.AddLinkCut(edges[i][0], edges[i][1])
			cut[i] = true
			check("add")
		}
		for v := 0; v < n; v++ {
			if nodeBits&(1<<uint(v)) == 0 {
				continue
			}
			we.AddNodeFault(v)
			down[v] = true
			check("fail-node")
		}
		for i := 0; i < len(edges) && i < 64; i++ {
			if repairBits&(1<<uint(i)) == 0 || !cut[i] {
				continue
			}
			we.RemoveLinkCut(edges[i][0], edges[i][1])
			delete(cut, i)
			check("remove")
		}
		for v := 0; v < n; v++ {
			if repairBits&(1<<uint(v)) == 0 || !down[v] {
				continue
			}
			we.RemoveNodeFault(v)
			delete(down, v)
			check("repair-node")
		}
		we.Reset()
		cut, down = map[int]bool{}, map[int]bool{}
		check("reset")

		// The engine-backed adversaries must reproduce the legacy
		// searches, witness and Evaluated included.
		cfg := Config{Mode: Exhaustive}
		got := WorstLinkCuts(ft, g, 1, cfg)
		want := fromOracleCuts(oracle.WorstLinkCuts(ft, g, 1, oc(cfg)))
		if got.Evaluated != want.Evaluated || got.Stats != want.Stats ||
			len(got.WorstCuts) != len(want.WorstCuts) {
			t.Fatalf("adversary diverged: engine %v, legacy %v", got, want)
		}
		for i := range got.WorstCuts {
			if got.WorstCuts[i] != want.WorstCuts[i] {
				t.Fatalf("worst witness diverged: engine %v, legacy %v", got.WorstCuts, want.WorstCuts)
			}
		}
		gotM := WorstMixedFaults(ft, g, 1, cfg)
		wantM := fromOracleMixedCuts(oracle.WorstMixedFaults(ft, g, 1, oc(cfg)))
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("mixed adversary diverged: engine %v, legacy %v", gotM, wantM)
		}
	})
}
