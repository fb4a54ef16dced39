package core

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// TriCircularInfo describes a constructed tri-circular routing.
type TriCircularInfo struct {
	T     int   // tolerated faults
	K     int   // total concentrator size (divisible by 3)
	Bound int   // proven diameter bound: 4 for K=6t+9 (Thm 13), 5 for the Remark 14 variant
	M     []int // the neighborhood set, partitioned into thirds M^0, M^1, M^2
}

// triCircularK returns the concentrator size: 6t+9 by default (Theorem
// 13, (4,t)-tolerant), or the Remark 14 minimum — three copies of the
// minimal circular ring: 3(t+1) for even t, 3(t+2) for odd t — which is
// (5,t)-tolerant.
func triCircularK(t int, minimal bool) (size, bound int) {
	if !minimal {
		return 6*t + 9, 4
	}
	return 3 * circularK(t, true), 5
}

// TriCircular builds the bidirectional tri-circular routing of Section 4
// (Figure 2). The concentrator M (size K, divisible by 3) is partitioned
// into three rings M^0, M^1, M^2 of size K/3 each; Γ^j_i = Γ(m^j_i).
// Components:
//
//	T-CIRC 1: every x ∉ Γ has a tree routing to every Γ^j_i;
//	T-CIRC 2: every x ∈ Γ^j_i has tree routings to Γ^j_{(i+k) mod K/3}
//	          for 1 <= k <= ⌈(K/3)/2⌉-1 (= t+1 when K = 6t+9, matching
//	          the paper's Component T-CIRC 2);
//	T-CIRC 3: every x ∈ Γ^j_i has tree routings to every set of the
//	          next ring, Γ^{(j+1) mod 3}_l for all l;
//	T-CIRC 4: every adjacent pair uses the direct edge route.
//
// By Theorem 13 the result is (4, t)-tolerant for K = 6t+9; the Remark
// 14 variant (Options.MinimalK) is (5, t)-tolerant.
func TriCircular(g *graph.Graph, opts Options) (*routing.Routing, *TriCircularInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	k, bound := triCircularK(t, opts.MinimalK)
	m := opts.Concentrator
	if m == nil {
		m, err = NeighborhoodSetAtLeast(g, k)
		if err != nil {
			return nil, nil, err
		}
	} else {
		if len(m) < k {
			return nil, nil, fmt.Errorf("%w: concentrator size %d < required K = %d", ErrNotApplicable, len(m), k)
		}
		m = m[:k]
		if err := CheckNeighborhoodSet(g, m); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrNotApplicable, err)
		}
	}
	third := k / 3
	gamma := make([][]int, k)    // indexed ring*third + pos
	ringOf := make([]int, g.N()) // which ring a Γ node belongs to, else -1
	posOf := make([]int, g.N())  // position within its ring
	for i := range ringOf {
		ringOf[i] = -1
	}
	for idx, mi := range m {
		gamma[idx] = g.Neighbors(mi)
		for _, v := range gamma[idx] {
			ringOf[v] = idx / third
			posOf[v] = idx % third
		}
	}
	forward := (third+1)/2 - 1 // within-ring forward range
	var jobs []treeJob
	for x := 0; x < g.N(); x++ {
		if ringOf[x] == -1 {
			// Component T-CIRC 1.
			for idx := 0; idx < k; idx++ {
				jobs = append(jobs, treeJob{x, gamma[idx]})
			}
			continue
		}
		j, i := ringOf[x], posOf[x]
		// Component T-CIRC 2: forward within ring j.
		for step := 1; step <= forward; step++ {
			jobs = append(jobs, treeJob{x, gamma[j*third+(i+step)%third]})
		}
		// Component T-CIRC 3: every set of ring j+1.
		next := (j + 1) % 3
		for l := 0; l < third; l++ {
			jobs = append(jobs, treeJob{x, gamma[next*third+l]})
		}
	}
	r := routing.NewBidirectional(g)
	if err := compileTrees(g, jobs, t+1, setTrees(r)); err != nil {
		return nil, nil, err
	}
	// Component T-CIRC 4.
	if err := r.AddEdgeRoutes(); err != nil {
		return nil, nil, err
	}
	return r, &TriCircularInfo{T: t, K: k, Bound: bound, M: m}, nil
}
