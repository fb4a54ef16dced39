// Planar networks: the kernel routing and the Section 6 upgrades.
//
// Planar graphs have connectivity at most 5, so the kernel bound 2t is
// at most 8 — the case the paper highlights after Theorem 3. This
// example runs the kernel routing on the icosahedron (the extreme
// planar case: κ = 5, t = 4), verifies the 2t = 8 and (4, ⌊t/2⌋)
// guarantees exhaustively, and then buys the surviving diameter down to
// 3 with the two Section 6 variants: multiroutes inside the
// concentrator, and clique augmentation (at most t(t+1)/2 added links).
//
// Run with:
//
//	go run ./examples/planar
package main

import (
	"fmt"
	"log"

	"ftroute"
)

func main() {
	log.SetFlags(0)

	g := ftroute.Icosahedron()
	k, sep, err := ftroute.VertexConnectivity(g)
	if err != nil {
		log.Fatal(err)
	}
	t := k - 1
	fmt.Printf("icosahedron: %d nodes, %d links, planar, κ = %d (t = %d), separator %v\n",
		g.N(), g.M(), k, t, sep)

	exhaustive := ftroute.EvalConfig{Mode: ftroute.Exhaustive}

	// Theorem 3: kernel routing, all fault sets up to t.
	kr, ki, err := ftroute.Kernel(g, ftroute.Options{Tolerance: t, Separator: sep})
	if err != nil {
		log.Fatal(err)
	}
	res := ftroute.MaxDiameterUnderFaults(kr, ki.T, exhaustive)
	fmt.Printf("\nkernel routing (Theorem 3): bound 2t = %d, worst over ALL %d fault sets: %d\n",
		ki.Bound, res.Evaluated, res.MaxDiameter)

	// Theorem 4: halve the fault budget, get a constant bound of 4.
	res = ftroute.MaxDiameterUnderFaults(kr, ki.T/2, exhaustive)
	fmt.Printf("kernel routing (Theorem 4): |F| <= ⌊t/2⌋ = %d keeps diameter <= 4: measured %d\n",
		ki.T/2, res.MaxDiameter)

	// Section 6 (2): multiroutes inside the concentrator — bound 3.
	km, mi, err := ftroute.KernelMultirouting(g, ftroute.Options{Tolerance: t, Separator: sep})
	if err != nil {
		log.Fatal(err)
	}
	res = ftroute.MaxDiameterUnderFaults(km, mi.T, exhaustive)
	fmt.Printf("\nkernel + concentrator multiroutes (§6): bound 3, measured %d (t+1 routes for %d concentrator pairs)\n",
		res.MaxDiameter, len(sep)*(len(sep)-1)/2)

	// Section 6 (network change): clique augmentation — bound 3 too.
	mod, ar, ai, err := ftroute.CliqueAugmentedKernel(g, ftroute.Options{Tolerance: t, Separator: sep})
	if err != nil {
		log.Fatal(err)
	}
	res = ftroute.MaxDiameterUnderFaults(ar, ai.T, exhaustive)
	fmt.Printf("clique-augmented kernel (§6): added %d links (max t(t+1)/2 = %d), bound 3, measured %d\n",
		len(ai.AddedEdges), ai.T*(ai.T+1)/2, res.MaxDiameter)
	fmt.Printf("modified network: %d links (was %d)\n", mod.M(), g.M())

	if res.Disconnected {
		log.Fatal("unexpected disconnection — this would be a bug")
	}
	fmt.Println("\nall four guarantees verified exhaustively on the extreme planar case")
}
