package ftroute_test

import (
	"fmt"

	"ftroute"
)

// ExampleAuto builds the strongest applicable routing for a long ring
// and reports its guarantee.
func ExampleAuto() {
	g, _ := ftroute.Cycle(45)
	plan, _ := ftroute.Auto(g, ftroute.Options{})
	fmt.Println(plan.Construction, plan.Bound, plan.T)
	// Output: tri-circular 4 1
}

// ExampleKernel constructs the Dolev et al. kernel routing on a
// hypercube and inspects the surviving graph under one fault.
func ExampleKernel() {
	g, _ := ftroute.Hypercube(3)
	r, info, _ := ftroute.Kernel(g, ftroute.Options{})
	surviving := r.SurvivingGraph(ftroute.FaultsOf(g.N(), 5))
	diam, _ := surviving.Diameter()
	fmt.Println(info.T, diam <= 4)
	// Output: 2 true
}

// ExampleCircular builds the (6,t)-tolerant circular routing of
// Figure 1 on a cycle.
func ExampleCircular() {
	g, _ := ftroute.Cycle(9)
	_, info, _ := ftroute.Circular(g, ftroute.Options{})
	fmt.Println(info.T, info.K, info.M)
	// Output: 1 3 [0 3 6]
}

// ExampleVertexConnectivity computes κ and a minimum separator.
func ExampleVertexConnectivity() {
	g, _ := ftroute.Hypercube(3)
	k, sep, _ := ftroute.VertexConnectivity(g)
	fmt.Println(k, len(sep))
	// Output: 3 3
}

// ExampleFindTwoTrees locates bipolar roots on a ring.
func ExampleFindTwoTrees() {
	g, _ := ftroute.Cycle(10)
	tt, _ := ftroute.FindTwoTrees(g)
	fmt.Println(tt.R1, tt.R2, g.Dist(tt.R1, tt.R2))
	// Output: 0 5 5
}

// ExampleCheckTolerance verifies Theorem 10 exhaustively on a small
// instance.
func ExampleCheckTolerance() {
	g, _ := ftroute.Cycle(9)
	r, _, _ := ftroute.Circular(g, ftroute.Options{})
	err := ftroute.CheckTolerance(r, 6, 1, ftroute.EvalConfig{Mode: ftroute.Exhaustive})
	fmt.Println(err)
	// Output: <nil>
}

// ExampleDiameterProfile shows the worst-case surviving diameter at
// each fault count.
func ExampleDiameterProfile() {
	g, _ := ftroute.Cycle(45)
	r, _, _ := ftroute.TriCircular(g, ftroute.Options{Tolerance: 1})
	profile := ftroute.DiameterProfile(r, 1, ftroute.EvalConfig{Mode: ftroute.Exhaustive})
	fmt.Println(profile)
	// Output: [2 3]
}

// ExampleFailoverFromRouting compiles a routing into per-node rank-1
// forwarding tables and walks a route hop by hop.
func ExampleFailoverFromRouting() {
	g, _ := ftroute.Cycle(6)
	r, _ := ftroute.ShortestPathRouting(g)
	ft := ftroute.FailoverFromRouting(r)
	fmt.Println(ft.WalkUnderFaults(0, 3, nil).Path)
	// Output: [0 1 2 3]
}

// ExampleHammingNeighborhoodSet returns the perfect-code concentrator
// that unlocks the circular routing on Q7.
func ExampleHammingNeighborhoodSet() {
	code, _ := ftroute.HammingNeighborhoodSet(7)
	fmt.Println(len(code), code[0], code[1])
	// Output: 16 0 7
}

// ExampleCliqueAugmentedKernel shows the Section 6 network change: a
// few added links buy a surviving diameter of 3.
func ExampleCliqueAugmentedKernel() {
	g, _ := ftroute.CCC(3)
	mod, _, info, _ := ftroute.CliqueAugmentedKernel(g, ftroute.Options{})
	fmt.Println(mod.M()-g.M() == len(info.AddedEdges), info.Bound)
	// Output: true 3
}
