package eval

import (
	"fmt"
	"slices"
	"testing"

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
// where frozen units count their sets instead of visiting them.
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
		budget := 1 + int(fRaw)%2 // 1..2 faults
		workers := 1 + int(wRaw)%7

		cfg := Config{Mode: Exhaustive}

		want := fromOracle(oracle.MaxDiameter(r, budget, oc(cfg)))
		sameResult(t, "serial", MaxDiameter(r, budget, cfg), want)
		sameResult(t, "parallel", MaxDiameterParallel(r, budget, cfg, workers), want)

		wantM := fromOracleMixed(oracle.MaxDiameterMixed(r, budget, oc(cfg)))
		sameMixedResult(t, "mixed serial", MaxDiameterMixed(r, budget, cfg), wantM)
		sameMixedResult(t, "mixed parallel", MaxDiameterMixedParallel(r, budget, cfg, workers), wantM)

		for _, links := range []bool{false, true} {
			want := oracle.Profile(r, budget, oc(cfg))
			if links {
				want = oracle.ProfileMixed(r, budget, oc(cfg))
			}
			if got := profile(r, budget, cfg, workers, links); !slices.Equal(got, want) {
				t.Fatalf("links=%v w=%d: profile %v != oracle %v", links, workers, got, want)
			}
			serial, _ := sizeRange(r, budget, budget, 1, links)
			got, _ := sizeRange(r, budget, budget, workers, links)
			sameMixedResult(t, fmt.Sprintf("links=%v size %d w=%d", links, budget, workers), got, serial)
		}
	})
}
