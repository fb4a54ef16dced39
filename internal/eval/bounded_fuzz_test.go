package eval

import (
	"fmt"
	"slices"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/eval/oracle"
	"ftroute/internal/routing"
)

// FuzzBoundedEquivalence pins the branch-and-bound exhaustive search to
// the rebuild-per-set oracle on random small graphs: for every
// generated instance the score, the disconnection verdict, the
// Evaluated count and the first-max witness must match, in either fault
// universe, serial or parallel. This is the bit-identity invariant the
// branch-and-bound kernel rests on (see docs/perf.md). The exact-size
// profiles must match the oracle's at the fuzzed worker count, and the
// fanned-out walk over sets of size exactly f must match the serial one,
// Evaluated included: the random graphs often disconnect at f = 2,
// where frozen units count their sets instead of visiting them. Every
// check runs on the shortest-path routing, on its reinforcement with
// one link-disjoint backup per pair, a multirouting whose pairs keep one
// route or get two, and on core.Auto's routing when the graph admits
// one. The first two are total, so their route graphs mostly go to the
// dense kernel; Auto's (usually the kernel construction) are sparse and
// drive the pivots and the skip set, which checkSkipSet also checks
// directly after each single-item fault and on the empty set, at every
// bound from −1 to 4.
func FuzzBoundedEquivalence(f *testing.F) {
	f.Add(uint8(6), uint64(0), uint8(1), uint8(1))
	f.Add(uint8(9), uint64(0x5a5a), uint8(2), uint8(4))
	f.Add(uint8(12), uint64(0xf00f), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw uint8, extra uint64, fRaw, wRaw uint8) {
		n := 4 + int(nRaw)%9 // 4..12 nodes
		g := fuzzCutGraph(n, extra)
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := routing.Reinforce(r, 1)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1 + int(fRaw)%2 // 1..2 faults
		workers := 1 + int(wRaw)%7

		cfg := Config{Mode: Exhaustive}

		type source struct {
			name string
			s    testSource
		}
		srcs := []source{{"routing", r}, {"reinforced", m}}
		if plan, err := core.Auto(g, core.Options{}); err == nil {
			srcs = append(srcs, source{"auto", plan.Routing})
		}
		for _, src := range srcs {
			name, s := src.name, src.s
			want := fromOracle(oracle.MaxDiameter(s, budget, oc(cfg)))
			sameResult(t, name+" serial", MaxDiameter(s, budget, cfg), want)
			sameResult(t, name+" parallel", MaxDiameterParallel(s, budget, cfg, workers), want)

			wantM := fromOracleMixed(oracle.MaxDiameterMixed(s, budget, oc(cfg)))
			sameMixedResult(t, name+" mixed serial", MaxDiameterMixed(s, budget, cfg), wantM)
			sameMixedResult(t, name+" mixed parallel", MaxDiameterMixedParallel(s, budget, cfg, workers), wantM)

			for _, links := range []bool{false, true} {
				want := oracle.Profile(s, budget, oc(cfg))
				if links {
					want = oracle.ProfileMixed(s, budget, oc(cfg))
				}
				if got := profile(s, budget, cfg, workers, links); !slices.Equal(got, want) {
					t.Fatalf("%s links=%v w=%d: profile %v != oracle %v", name, links, workers, got, want)
				}
				serial, _ := sizeRange(s, budget, budget, 1, links)
				got, _ := sizeRange(s, budget, budget, workers, links)
				sameMixedResult(t, fmt.Sprintf("%s links=%v size %d w=%d", name, links, budget, workers), got, serial)
			}

			eng := NewEngine(s)
			for it := -1; it < eng.faults.Cap(); it++ {
				if it >= 0 {
					eng.toggle(it, true)
				}
				for bound := -1; bound <= 4; bound++ {
					checkSkipSet(t, name, eng, bound)
				}
				if it >= 0 {
					eng.toggle(it, false)
				}
			}
		}
	})
}
