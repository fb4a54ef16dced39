package core

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// CircularInfo describes a constructed circular routing.
type CircularInfo struct {
	T     int   // tolerated faults
	K     int   // concentrator size actually used
	Bound int   // proven diameter bound: 6 (Thm 10)
	M     []int // the neighborhood set m_0..m_{K-1}
}

// circularK returns the concentrator size the circular construction
// needs: 2t+1 by default (Lemma 7), or the minimum from Lemma 9 (t+1
// for even t, t+2 for odd t). Both are odd, which keeps the forward
// ranges of Component CIRC 2 conflict-free.
func circularK(t int, minimal bool) int {
	if !minimal {
		return 2*t + 1
	}
	if t%2 == 0 {
		return t + 1
	}
	return t + 2
}

// Circular builds the bidirectional circular routing of Section 4
// (Figure 1): a neighborhood set M = {m_0,...,m_{K-1}} acts as the
// concentrator, with Γ_i = Γ(m_i) its (pairwise disjoint) neighbor
// sets. Components:
//
//	CIRC 1: every x ∉ Γ has a tree routing to every Γ_i;
//	CIRC 2: every x ∈ Γ_i has tree routings to Γ_{(i+j) mod K} for
//	        1 <= j <= ⌈K/2⌉-1;
//	CIRC 3: every adjacent pair uses the direct edge route.
//
// By Theorem 10 the result is (6, t)-tolerant.
func Circular(g *graph.Graph, opts Options) (*routing.Routing, *CircularInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	k := circularK(t, opts.MinimalK)
	m, err := concentrator(g, opts, k)
	if err != nil {
		return nil, nil, err
	}
	// Components CIRC 1 and CIRC 2, then CIRC 3.
	r, err := treeRouting(g, ringJobs(g, m, 1), t, true)
	if err != nil {
		return nil, nil, err
	}
	return r, &CircularInfo{T: t, K: k, Bound: 6, M: m}, nil
}

// ringJobs lists the tree routings of the circular routings. The
// neighborhood set m is cut into rings consecutive rings of equal size
// s, and Γ_i = Γ(m_i). Every x ∉ Γ routes to every Γ_i (CIRC 1,
// T-CIRC 1); x ∈ Γ_i routes forward to the next ⌈s/2⌉-1 sets of its
// ring (CIRC 2, T-CIRC 2) and, when there are several rings, to every
// set of the next ring (T-CIRC 3).
func ringJobs(g *graph.Graph, m []int, rings int) []treeJob {
	size := len(m) / rings
	gamma := make([][]int, len(m)) // Γ_i, i = ring*size + position
	at := make([]int, g.N())       // the i with x ∈ Γ_i, or -1 for x ∉ Γ
	for x := range at {
		at[x] = -1
	}
	for i, mi := range m {
		gamma[i] = g.Neighbors(mi)
		for _, v := range gamma[i] {
			at[v] = i
		}
	}
	forward := (size+1)/2 - 1 // ⌈s/2⌉ - 1
	var jobs []treeJob
	for x := 0; x < g.N(); x++ {
		if at[x] == -1 {
			for _, set := range gamma {
				jobs = append(jobs, treeJob{x, set})
			}
			continue
		}
		ring, pos := at[x]/size, at[x]%size
		for step := 1; step <= forward; step++ {
			jobs = append(jobs, treeJob{x, gamma[ring*size+(pos+step)%size]})
		}
		if rings > 1 {
			next := (ring + 1) % rings
			for _, set := range gamma[next*size : (next+1)*size] {
				jobs = append(jobs, treeJob{x, set})
			}
		}
	}
	return jobs
}
