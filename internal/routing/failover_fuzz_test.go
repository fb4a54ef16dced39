package routing

import (
	"testing"

	"ftroute/internal/graph"
)

// fuzzGraph builds a small connected graph deterministically from the
// fuzz inputs: a cycle backbone over n nodes plus chords selected by the
// bits of extra.
func fuzzGraph(n int, extra uint64) *graph.Graph {
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

// FuzzWalkUnderFaults asserts the core safety property of static
// failover: for tables compiled from any valid routing, a walk under any
// node+link fault set always terminates within n hops with one of the
// three classified outcomes, and a Delivered walk really reaches the
// destination over live nodes and links. The rank-1 tables of the
// primary routing are exercised alongside on the fault-free case.
func FuzzWalkUnderFaults(f *testing.F) {
	f.Add(uint8(6), uint64(0), uint8(0), uint8(3), uint64(0), uint64(0))
	f.Add(uint8(10), uint64(0x5a5a), uint8(2), uint8(7), uint64(1), uint64(0x11))
	f.Add(uint8(16), uint64(0xffff_ffff), uint8(15), uint8(0), uint64(0xf0f0), uint64(0xa5))
	f.Fuzz(func(t *testing.T, nRaw uint8, extra uint64, srcRaw, dstRaw uint8, nodeBits, linkBits uint64) {
		n := 4 + int(nRaw)%13 // 4..16 nodes
		g := fuzzGraph(n, extra)
		r, err := ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Reinforce(r, 1+int(extra)%2)
		if err != nil {
			t.Fatal(err)
		}
		ft := CompileFailover(m)
		src := int(srcRaw) % n
		dst := int(dstRaw) % n

		faults := NewFaultSet(n)
		for v := 0; v < n && v < 64; v++ {
			if nodeBits&(1<<uint(v)) != 0 {
				faults.FailNode(v)
			}
		}
		// Link faults: pick cycle edges by bit index.
		for i := 0; i < n && i < 64; i++ {
			if linkBits&(1<<uint(i)) != 0 {
				faults.FailLink(i, (i+1)%n)
			}
		}

		res := ft.WalkUnderFaults(src, dst, faults)
		if res.Outcome != Delivered && res.Outcome != Blackhole && res.Outcome != Loop {
			t.Fatalf("unclassified outcome %v", res.Outcome)
		}
		if res.Hops > n {
			t.Fatalf("walk took %d hops on %d nodes", res.Hops, n)
		}
		if res.Hops != len(res.Path)-1 {
			t.Fatalf("hops %d vs path %v", res.Hops, res.Path)
		}
		if res.Path[0] != src {
			t.Fatalf("path %v does not start at src %d", res.Path, src)
		}
		for i := 0; i+1 < len(res.Path); i++ {
			a, b := res.Path[i], res.Path[i+1]
			if !g.HasEdge(a, b) {
				t.Fatalf("walk used non-edge %d-%d (path %v)", a, b, res.Path)
			}
			if faults.LinkFaulty(a, b) {
				t.Fatalf("walk crossed faulty link %d-%d (path %v)", a, b, res.Path)
			}
			if faults.NodeFaulty(b) {
				t.Fatalf("walk entered faulty node %d (path %v)", b, res.Path)
			}
		}
		if res.Outcome == Delivered && res.Path[len(res.Path)-1] != dst {
			t.Fatalf("delivered but path %v ends short of %d", res.Path, dst)
		}
		if res.Outcome == Loop {
			last := res.Path[len(res.Path)-1]
			seen := false
			for _, v := range res.Path[:len(res.Path)-1] {
				if v == last {
					seen = true
					break
				}
			}
			if !seen {
				t.Fatalf("loop claimed but %v has no revisit", res.Path)
			}
		}

		// Without faults the ranked tables must deliver every routed pair,
		// and the rank-1 tables must follow the stored route.
		if src != dst {
			if got := ft.WalkUnderFaults(src, dst, nil); got.Outcome != Delivered {
				t.Fatalf("fault-free walk (%d,%d): %v", src, dst, got.Outcome)
			}
			route, _ := r.Get(src, dst)
			if got := FailoverFromRouting(r).WalkUnderFaults(src, dst, nil); got.Outcome != Delivered || !got.Path.Equal(route) {
				t.Fatalf("rank-1 walk (%d,%d) = %+v, route %v", src, dst, got, route)
			}
		}
	})
}
