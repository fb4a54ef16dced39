package experiments

import (
	"fmt"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// must unwraps generator results whose parameters are compile-time
// constants; a failure is a bug in the experiment definition, so it
// panics rather than propagating an impossible error.
func must(g *graph.Graph, err error) *graph.Graph {
	if err != nil {
		panic(err)
	}
	return g
}

// workload is one named graph in an experiment's sweep.
type workload struct {
	name string
	g    *graph.Graph
}

// instance is one named graph and the construction an experiment
// builds on it with core.Build.
type instance struct {
	name string
	g    *graph.Graph
	c    core.Construction
}

// maxEval is the shared evaluation policy: exhaustive when the number of
// fault sets is manageable, sampled + greedy adversarial otherwise. It
// reports the worst diameter (-1 for disconnection) and the method used.
func maxEval(s eval.RouteSource, f int, exhaustiveBudget int) (int, string) {
	n := s.Graph().N()
	sets := 1
	binom := 1
	for k := 1; k <= f; k++ {
		binom = binom * (n - k + 1) / k
		sets += binom
	}
	var res eval.MixedResult
	method := "exhaustive"
	if sets <= exhaustiveBudget {
		// Workers = 0 means GOMAXPROCS; for engine-backed routings the
		// parallel search is bit-for-bit identical to the serial one,
		// so the tables are unaffected.
		res = eval.MaxDiameterParallel(s, f, eval.Config{Mode: eval.Exhaustive}, 0)
	} else {
		method = "sampled+greedy"
		res = eval.MaxDiameterParallel(s, f, eval.Config{Mode: eval.Sampled, Samples: 200, Seed: 7, Greedy: true}, 0)
	}
	if res.Disconnected {
		return -1, method
	}
	return res.MaxDiameter, method
}

// runE1 measures Theorem 3: the kernel routing is (2t, t)-tolerant
// (with the max{2t,4} refinement stated by Dolev et al.).
func runE1(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E1",
		Title:      "Kernel routing worst-case surviving diameter at |F| <= t",
		PaperClaim: "Theorem 3 (Dolev et al. 1984): kernel routing is (2t,t)-tolerant; stated bound max{2t,4}",
		Header:     []string{"graph", "n", "t", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"cycle C8", must(gen.Cycle(8))},
		{"grid 3x4 (planar)", must(gen.Grid(3, 4))},
		{"hypercube Q3", must(gen.Hypercube(3))},
		{"CCC(3)", must(gen.CCC(3))},
		{"Petersen", gen.Petersen()},
		{"octahedron (planar)", gen.Octahedron()},
	}
	if scale == Full {
		ws = append(ws,
			workload{"icosahedron (planar)", gen.Icosahedron()},
			workload{"hypercube Q4", must(gen.Hypercube(4))},
			workload{"butterfly BF(3)", must(gen.WrappedButterfly(3))},
			workload{"Harary H(4,12)", must(gen.Harary(4, 12))},
		)
	}
	for _, w := range ws {
		r, info, err := core.Kernel(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E1 %s: %w", w.name, err)
		}
		measured, method := maxEval(r, info.T, 40000)
		t.AddRow(w.name, w.g.N(), info.T, info.Bound, diamStr(measured), method, okStr(measured, info.Bound))
	}
	t.Notes = append(t.Notes, "bound is max{2t,4}: tree routings guarantee at most 2 hops to and from the concentrator")
	return t, nil
}

// runE2 measures Theorem 4: the kernel routing is (4, ⌊t/2⌋)-tolerant.
func runE2(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E2",
		Title:      "Kernel routing worst-case surviving diameter at |F| <= ⌊t/2⌋",
		PaperClaim: "Theorem 4: the kernel routing is (4, ⌊t/2⌋)-tolerant",
		Header:     []string{"graph", "n", "t", "f", "bound", "measured", "method", "check"},
	}
	ws := []workload{
		{"hypercube Q4", must(gen.Hypercube(4))},
		{"octahedron", gen.Octahedron()},
	}
	if scale == Full {
		ws = append(ws,
			workload{"icosahedron", gen.Icosahedron()},
			workload{"hypercube Q5", must(gen.Hypercube(5))},
			workload{"Harary H(5,14)", must(gen.Harary(5, 14))},
			workload{"Harary H(6,16)", must(gen.Harary(6, 16))},
			workload{"torus 4x5", must(gen.Torus(4, 5))},
		)
	}
	for _, w := range ws {
		r, info, err := core.Kernel(w.g, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("E2 %s: %w", w.name, err)
		}
		f := info.T / 2
		measured, method := maxEval(r, f, 40000)
		t.AddRow(w.name, w.g.N(), info.T, f, 4, diamStr(measured), method, okStr(measured, 4))
	}
	return t, nil
}
