package eval

import (
	"math/rand"
	"slices"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// FuzzRelabelInvariance checks that no exhaustive search result depends
// on node labels. It draws a small graph (a cycle, a connected random
// 3-regular graph or a hypercube), a circular routing on it (a kernel
// routing where circular does not apply) and a relabelling π, and
// carries the routing through π, and with it the routing's rank-1
// failover tables and its reinforcement (Reinforce(r, 1), relabelled
// route for route, compiled to multi-rank tables). The exhaustive
// searches must agree on the original and the relabelled instance in
// everything labels cannot move:
//
//   - MaxDiameter and MaxDiameterMixed: Disconnected and Evaluated, and
//     MaxDiameter when connected (after a disconnection freezes the
//     search, MaxDiameter is the incumbent before the first
//     disconnecting set in preorder, and labels decide that order);
//   - ConcentratorAdversary on a fixed target list T against the same
//     search on π(T), in the same order: its preorder follows the list,
//     not the labels, so the two results are equal field for field once
//     the witness is mapped back, MaxDiameter after a disconnection
//     included;
//   - every row of ProfileMixed;
//   - BeyondTolerance and BeyondToleranceMixed: the counts and the worst
//     component diameter;
//   - WorstLinkCuts and WorstMixedFaults, on both table sets:
//     Evaluated and Disrupted().
//
// Each relabelled witness, mapped back through π⁻¹ (links by their
// endpoints), must score the same on the original: the same surviving
// diameter or disconnection, and identical walk outcome counts.
// Sampled and greedy searches draw by label and are left out.
func FuzzRelabelInvariance(f *testing.F) {
	f.Add(uint8(0), uint8(4), int64(1), int64(2), uint8(1))
	f.Add(uint8(1), uint8(1), int64(3), int64(5), uint8(1))
	f.Add(uint8(2), uint8(1), int64(0), int64(7), uint8(0))
	f.Add(uint8(0), uint8(2), int64(4), int64(11), uint8(1))
	f.Add(uint8(1), uint8(2), int64(8), int64(13), uint8(0))
	f.Fuzz(func(t *testing.T, family, size uint8, graphSeed, permSeed int64, budget uint8) {
		var g *graph.Graph
		var err error
		switch family % 3 {
		case 0:
			g, err = gen.Cycle(5 + int(size)%6)
		case 1:
			g, _, err = gen.RandomRegularConnected(6+2*(int(size)%3), 3, graphSeed, 20)
		default:
			g, err = gen.Hypercube(2 + int(size)%2)
		}
		if err != nil {
			t.Skip(err)
		}
		r, _, err := core.Circular(g, core.Options{})
		if err != nil {
			r, _, err = core.Kernel(g, core.Options{})
		}
		if err != nil {
			t.Skip(err)
		}
		n := g.N()
		pi := rand.New(rand.NewSource(permSeed)).Perm(n)
		inv := make([]int, n)
		h := graph.New(n)
		for v, pv := range pi {
			inv[pv] = v
		}
		for _, e := range g.Edges() {
			h.MustAddEdge(pi[e[0]], pi[e[1]])
		}
		rh := routing.New(h)
		r.EachRoute(func(_, _ int, p routing.Path) {
			q := make(routing.Path, len(p))
			for i, v := range p {
				q[i] = pi[v]
			}
			if err := rh.Set(q); err != nil {
				t.Fatal(err)
			}
		})
		// Reinforce once and carry the multirouting through π route for
		// route: reinforcing h would break BFS ties by the new labels.
		m, err := routing.Reinforce(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		mh := routing.NewMulti(h, m.Limit(), false)
		m.EachRoute(func(_, _ int, p routing.Path) {
			q := make(routing.Path, len(p))
			for i, v := range p {
				q[i] = pi[v]
			}
			if err := mh.Add(q); err != nil {
				t.Fatal(err)
			}
		})
		back := func(nodes []int, cuts []routing.EdgeFault) (*graph.Bitset, []routing.EdgeFault) {
			nf := graph.NewBitset(n)
			for _, v := range nodes {
				nf.Add(inv[v])
			}
			var ef []routing.EdgeFault
			for _, c := range cuts {
				ef = append(ef, routing.EdgeFault{U: inv[c.U], V: inv[c.V]}.Normalize())
			}
			return nf, ef
		}
		fb := 1 + int(budget)%2
		cfg := Config{Mode: Exhaustive}

		a, b := MaxDiameter(r, fb, cfg), MaxDiameter(rh, fb, cfg)
		if a.Disconnected != b.Disconnected || a.Evaluated != b.Evaluated || !a.Disconnected && a.MaxDiameter != b.MaxDiameter {
			t.Fatalf("MaxDiameter: original %v, relabelled %v", a, b)
		}
		nf, _ := back(b.WorstNodeFaults.Elements(), nil)
		if d, ok := r.SurvivingGraph(nf).Diameter(); ok == b.Disconnected || ok && d != b.MaxDiameter {
			t.Fatalf("witness %v of %v scores (%d, %v) on the original", nf, b, d, ok)
		}

		targets := []int{0, n / 2, n - 1, 1}
		mapped := make([]int, len(targets))
		for i, v := range targets {
			mapped[i] = pi[v]
		}
		a, b = ConcentratorAdversary(r, fb, targets), ConcentratorAdversary(rh, fb, mapped)
		nf, _ = back(b.WorstNodeFaults.Elements(), nil)
		if a.Disconnected != b.Disconnected || a.Evaluated != b.Evaluated || a.MaxDiameter != b.MaxDiameter ||
			!slices.Equal(nf.Elements(), a.WorstNodeFaults.Elements()) || a.WorstEdgeFaults != nil || b.WorstEdgeFaults != nil {
			t.Fatalf("ConcentratorAdversary on %v: original %v, relabelled %v (witness %v mapped back)", targets, a, b, nf)
		}

		a, b = MaxDiameterMixed(r, fb, cfg), MaxDiameterMixed(rh, fb, cfg)
		if a.Disconnected != b.Disconnected || a.Evaluated != b.Evaluated || !a.Disconnected && a.MaxDiameter != b.MaxDiameter {
			t.Fatalf("MaxDiameterMixed: original %v, relabelled %v", a, b)
		}
		nf, ef := back(b.WorstNodeFaults.Elements(), b.WorstEdgeFaults)
		if d, ok := r.SurvivingGraphMixed(nf, ef).Diameter(); ok == b.Disconnected || ok && d != b.MaxDiameter {
			t.Fatalf("witness %v %v of %v scores (%d, %v) on the original", nf, ef, b, d, ok)
		}

		if pa, pb := ProfileMixed(r, fb, cfg), ProfileMixed(rh, fb, cfg); !slices.Equal(pa, pb) {
			t.Fatalf("ProfileMixed: original %v, relabelled %v", pa, pb)
		}

		for _, beyond := range []func(RouteSource, int) BeyondResult{BeyondTolerance, BeyondToleranceMixed} {
			a, b := beyond(r, fb), beyond(rh, fb)
			if a.Evaluated != b.Evaluated || a.GraphConnected != b.GraphConnected || a.Shattered != b.Shattered ||
				a.WorstComponentDiameter != b.WorstComponentDiameter {
				t.Fatalf("beyond tolerance: original %+v, relabelled %+v", a, b)
			}
		}

		for _, tables := range []struct {
			name   string
			tg, th *routing.FailoverTables
		}{
			{"rank-1", routing.FailoverFromRouting(r), routing.FailoverFromRouting(rh)},
			{"reinforced", routing.CompileFailover(m), routing.CompileFailover(mh)},
		} {
			tg, th := tables.tg, tables.th
			ca, cb := WorstLinkCuts(tg, g, fb, cfg), WorstLinkCuts(th, h, fb, cfg)
			if ca.Evaluated != cb.Evaluated || ca.Stats.Disrupted() != cb.Stats.Disrupted() {
				t.Fatalf("%s WorstLinkCuts: original %v, relabelled %v", tables.name, ca, cb)
			}
			_, ef := back(nil, cb.WorstCuts)
			if got := EvaluateMixedFaults(tg, nil, ef); got != cb.Stats {
				t.Fatalf("%s cut witness %v of %v walks to %+v on the original", tables.name, ef, cb, got)
			}
			wa, wb := WorstMixedFaults(tg, g, fb, cfg), WorstMixedFaults(th, h, fb, cfg)
			if wa.Evaluated != wb.Evaluated || wa.Stats.Disrupted() != wb.Stats.Disrupted() {
				t.Fatalf("%s WorstMixedFaults: original %v, relabelled %v", tables.name, wa, wb)
			}
			nf, ef := back(wb.WorstNodes, wb.WorstCuts)
			if got := EvaluateMixedFaults(tg, nf.Elements(), ef); got != wb.Stats {
				t.Fatalf("%s walk witness %v %v of %v walks to %+v on the original", tables.name, nf, ef, wb, got)
			}
		}
	})
}
