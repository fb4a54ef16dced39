package core

import (
	"errors"
	"testing"

	"ftroute/internal/connectivity"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// fuzzGraph draws a small graph of one of seven families: cycles,
// Harary graphs, random regular graphs, G(n, p), tori, hypercubes and
// cube-connected cycles. The sizes keep every exhaustive check below a
// few thousand fault sets.
func fuzzGraph(family, n uint8, seed int64) (*graph.Graph, error) {
	size := int(n)
	switch family % 7 {
	case 0:
		return gen.Cycle(5 + size%62)
	case 1:
		k := 2 + size%3
		return gen.Harary(k, k+3+size/3%14)
	case 2:
		return gen.RandomRegular(8+2*(size/2%12), 3+size%2, seed)
	case 3:
		g, _, err := gen.GnpConnected(6+size%12, 0.3+0.1*float64(size/12%3), seed, 20)
		return g, err
	case 4:
		return gen.Torus(3+size%3, 3+size/3%3)
	case 5:
		return gen.Hypercube(2 + size%3)
	default:
		return gen.CCC(3 + size%2)
	}
}

// FuzzConstructionBounds ties every construction the paper proves a
// bound for to its theorem: on a random small graph, each routing that
// applies must survive every fault set of size <= T with diameter <=
// Bound, the (Bound, T) its own Info reports. The kernel is also held
// to Theorem 4's (4, ⌊t/2⌋). TwoRouteMultirouting is left out: the
// paper leaves its bound implicit, and experiment E11 measures it.
func FuzzConstructionBounds(f *testing.F) {
	f.Add(uint8(0), uint8(3), int64(1))  // cycle C8: Auto's kernel at t = 1
	f.Add(uint8(1), uint8(14), int64(1)) // Harary H(4, 11)
	f.Add(uint8(2), uint8(4), int64(5))  // random 3-regular, n = 12
	f.Add(uint8(3), uint8(16), int64(3)) // G(10, 0.4)
	f.Add(uint8(4), uint8(0), int64(1))  // torus 3x3
	f.Add(uint8(5), uint8(1), int64(1))  // hypercube Q3
	f.Add(uint8(6), uint8(0), int64(1))  // CCC(3)
	f.Fuzz(func(t *testing.T, family, n uint8, seed int64) {
		g, err := fuzzGraph(family, n, seed)
		if err != nil {
			return
		}
		k, _, err := connectivity.VertexConnectivity(g)
		if err != nil || k < 1 {
			return // complete or disconnected
		}
		opts := Options{Tolerance: k - 1}
		// built reports whether a construction applied; any error but
		// ErrNotApplicable fails the test.
		built := func(name string, err error) bool {
			if err != nil && !errors.Is(err, ErrNotApplicable) {
				t.Fatalf("%s: %v", name, err)
			}
			return err == nil
		}
		check := func(name string, s eval.RouteSource, bound, faults int) {
			if err := eval.CheckTolerance(s, bound, faults, exhaustiveCfg()); err != nil {
				t.Fatalf("%s on %d nodes: not (%d, %d)-tolerant: %v", name, g.N(), bound, faults, err)
			}
		}
		for _, b := range builds {
			if p, err := b.build(g, opts); built(b.String(), err) {
				check(b.String(), p.Routing, p.Bound, p.T)
				if b.c == ConstructionKernel {
					check("kernel (Theorem 4)", p.Routing, 4, p.T/2)
				}
			}
		}
		if g.N() <= 20 {
			if m, info, err := FullMultirouting(g, opts); built("full multirouting", err) {
				check("full multirouting", m, info.Bound, info.T)
			}
		}
		if m, info, err := KernelMultirouting(g, opts); built("kernel multirouting", err) {
			check("kernel multirouting", m, info.Bound, info.T)
		}
		if _, r, info, err := CliqueAugmentedKernel(g, opts); built("clique-augmented kernel", err) {
			check("clique-augmented kernel", r, info.Bound, info.T)
		}
		if plan, err := Auto(g, opts); built("auto", err) {
			check("auto "+string(plan.Construction), plan.Routing, plan.Bound, plan.T)
		}
	})
}
