// Hypercube: fault-tolerant routings on Q7 using a perfect Hamming code
// as the concentrator.
//
// The paper proves (Corollary 17) that graphs of degree below 0.79·n^(1/3)
// admit the circular construction via the greedy neighborhood set of
// Lemma 15. The hypercube Q7 (n = 128, degree 7) sits *above* that
// threshold — the greedy bound guarantees only ceil(128/50) = 3
// concentrator nodes (greedy may do better on a given instance, but
// without a guarantee). This example shows how domain structure restores
// the guarantee: the 16 codewords of the perfect Hamming(7,4) code are
// pairwise at Hamming distance >= 3, i.e. they form a certified
// neighborhood set, unlocking the (6, t)-tolerant circular routing at
// t = 6.
//
// Run with:
//
//	go run ./examples/hypercube
package main

import (
	"fmt"
	"log"

	"ftroute"
)

func main() {
	log.SetFlags(0)

	const d = 7
	g, err := ftroute.Hypercube(d)
	if err != nil {
		log.Fatal(err)
	}
	t := d - 1 // κ(Q_d) = d
	fmt.Printf("hypercube Q%d: %d nodes, %d links, connectivity %d (t = %d)\n", d, g.N(), g.M(), d, t)

	greedy := ftroute.NeighborhoodSet(g)
	fmt.Printf("greedy neighborhood set (Lemma 15): %d nodes — need 2t+1 = %d for the circular routing\n",
		len(greedy), 2*t+1)

	code, err := ftroute.HammingNeighborhoodSet(d)
	if err != nil {
		log.Fatal(err)
	}
	if err := ftroute.CheckNeighborhoodSet(g, code); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Hamming(7,4) code: %d codewords, a valid neighborhood set\n\n", len(code))

	r, info, err := ftroute.Circular(g, ftroute.Options{Tolerance: t, Concentrator: code})
	if err != nil {
		log.Fatal(err)
	}
	st := r.Stats()
	fmt.Printf("circular routing built: K = %d, %d routed pairs, avg route length %.2f\n",
		info.K, st.Pairs, st.AvgLen)

	// Hit it with batches of random faults up to the tolerance.
	for _, f := range []int{1, 3, 6} {
		res := ftroute.MaxDiameterUnderFaults(r, f, ftroute.EvalConfig{
			Mode: ftroute.Sampled, Samples: 40, Seed: int64(f),
		})
		fmt.Printf("  |F| = %d: worst surviving diameter %d over %d fault sets (bound 6)\n",
			f, res.MaxDiameter, res.Evaluated)
		if res.Disconnected || res.MaxDiameter > 6 {
			log.Fatal("Theorem 10 violated — this would be a bug")
		}
	}

	// Compare with the kernel routing, whose bound degrades with t.
	kr, ki, err := ftroute.Kernel(g, ftroute.Options{Tolerance: t})
	if err != nil {
		log.Fatal(err)
	}
	res := ftroute.MaxDiameterUnderFaults(kr, t, ftroute.EvalConfig{
		Mode: ftroute.Sampled, Samples: 40, Seed: 9,
	})
	fmt.Printf("\nkernel routing for comparison: bound 2t = %d, observed %d\n", ki.Bound, res.MaxDiameter)
	fmt.Println("the circular routing's constant bound beats the kernel's 2t as networks scale up")
}
