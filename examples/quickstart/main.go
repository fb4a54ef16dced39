// Quickstart: build a network, let the library pick the strongest
// fault-tolerant routing construction from Peleg & Simons (1987), inject
// faults, and watch the surviving route graph keep its constant
// diameter.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ftroute"
)

func main() {
	log.SetFlags(0)

	// A cube-connected-cycles network: one of the bounded-degree
	// hypercube realizations the paper names. CCC(4) has 64 nodes,
	// degree 3, connectivity 3 — so it tolerates t = 2 faults.
	g, err := ftroute.CCC(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: CCC(4), %d nodes, %d links, diameter ", g.N(), g.M())
	if d, ok := g.Diameter(nil); ok {
		fmt.Println(d)
	}

	// Auto picks the strongest applicable construction. Passing the
	// known tolerance (connectivity-1) skips the κ computation.
	plan, err := ftroute.Auto(g, ftroute.Options{Tolerance: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("construction: %s — %s\n", plan.Construction, plan.Reason)
	fmt.Printf("guarantee: surviving diameter <= %d for any %d faults\n\n", plan.Bound, plan.T)

	// Fail two nodes and inspect the surviving route graph: the graph on
	// the live nodes whose arcs are the routes untouched by the faults.
	faults := ftroute.FaultsOf(g.N(), 10, 37)
	surviving := plan.Routing.SurvivingGraph(faults)
	diam, ok := surviving.Diameter()
	if !ok {
		log.Fatal("unexpected: surviving graph disconnected within tolerance")
	}
	fmt.Printf("with faults %v: surviving diameter %d (bound %d)\n", faults, diam, plan.Bound)

	// Worst case over many fault sets: still within the bound.
	res := ftroute.MaxDiameterUnderFaults(plan.Routing, plan.T, ftroute.EvalConfig{
		Mode: ftroute.Sampled, Samples: 150, Greedy: true, Seed: 42,
	})
	fmt.Printf("worst over %d fault sets: diameter %d (worst F = %v)\n",
		res.Evaluated, res.MaxDiameter, res.WorstNodeFaults)
	if res.MaxDiameter > plan.Bound || res.Disconnected {
		log.Fatal("bound violated — this would be a bug")
	}
	fmt.Println("\nTheorem holds: every message needs at most", plan.Bound,
		"route traversals, no matter which", plan.T, "nodes fail.")
}
