package eval

import (
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

// FuzzEnginesAgree ties the two engines to each other rather than each
// to its own oracle. On rank-1 tables (FailoverFromRouting of a
// ShortestPath routing) a pair's walk follows its single route, so it
// is Delivered exactly when the route survives. Under any mixed fault
// set, every routed pair with both endpoints alive must therefore be
// Delivered by the WalkEngine iff the Engine keeps the arc u→v — after
// the faults are added and again after some of them are repaired.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(4), uint8(0), int64(1), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(10), uint8(1), int64(7), uint64(0x21), uint64(0x3), uint64(0x1))
	f.Add(uint8(14), uint8(0), int64(11), uint64(0x104), uint64(0xf0f0), uint64(0xff))
	f.Add(uint8(9), uint8(1), int64(3), uint64(0x5), uint64(0x8421), uint64(0x4200))
	f.Fuzz(func(t *testing.T, nRaw, dRaw uint8, seed int64, nodeBits, linkBits, repairBits uint64) {
		d := 3 + int(dRaw)%2 // 3- or 4-regular
		n := 6 + int(nRaw)%11
		if n*d%2 != 0 {
			n++
		}
		g, _, err := gen.RandomRegularConnected(n, d, seed, 20)
		if err != nil {
			t.Skip(err)
		}
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(r)
		we := NewWalkEngine(routing.FailoverFromRouting(r), g)
		edges := g.Edges()
		check := func(stage string) {
			t.Helper()
			for p := 0; p < we.PairCount(); p++ {
				u, v := we.Pair(p)
				if eng.HasFault(u) || eng.HasFault(v) {
					continue
				}
				if delivered := we.Outcome(p) == routing.Delivered; delivered != eng.HasArc(u, v) {
					t.Fatalf("%s: pair (%d,%d) walk %v, route-graph arc %v (F %v E %v)",
						stage, u, v, we.Outcome(p), eng.HasArc(u, v), eng.Faults(), eng.EdgeFaults())
				}
			}
		}
		for v := 0; v < n; v++ {
			if nodeBits&(1<<uint(v)) != 0 {
				eng.AddFault(v)
				we.AddNodeFault(v)
			}
		}
		for i, e := range edges {
			if i < 64 && linkBits&(1<<uint(i)) != 0 {
				eng.AddEdgeFault(e[0], e[1])
				we.AddLinkCut(e[0], e[1])
			}
		}
		check("faulted")
		for v := 0; v < n; v++ {
			if repairBits&(1<<uint(v)) != 0 {
				eng.RemoveFault(v)
				we.RemoveNodeFault(v)
			}
		}
		for i, e := range edges {
			if i < 64 && repairBits&(1<<uint(63-i)) != 0 {
				eng.RemoveEdgeFault(e[0], e[1])
				we.RemoveLinkCut(e[0], e[1])
			}
		}
		check("repaired")
	})
}
