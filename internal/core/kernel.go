package core

import (
	"fmt"

	"ftroute/internal/connectivity"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Options tunes the constructions. The zero value asks each construction
// to compute everything it needs.
type Options struct {
	// Tolerance is t (connectivity - 1). Leave 0 to have the
	// construction compute the graph's vertex connectivity; set it when
	// the connectivity is known (e.g. for generated families) to skip
	// that computation. A construction built with tolerance t yields a
	// (d, t)-tolerant routing per the corresponding theorem.
	Tolerance int
	// Separator optionally supplies a separating set of size >=
	// Tolerance+1 for the kernel construction.
	Separator []int
	// Concentrator optionally supplies a neighborhood set for the
	// circular and tri-circular constructions.
	Concentrator []int
	// MinimalK, for the circular construction, uses the paper's minimal
	// concentrator size (t+1 for even t, t+2 for odd t; Lemma 9) instead
	// of the default 2t+1. For the tri-circular construction it uses
	// K = 3t+3 / 3t+6 (Remark 14, (5,t)-tolerant) instead of 6t+9.
	MinimalK bool
}

// resolveTolerance returns t from opts or by computing κ(G)-1.
func resolveTolerance(g *graph.Graph, opts Options) (int, error) {
	if opts.Tolerance > 0 {
		return opts.Tolerance, nil
	}
	k, _, err := connectivity.VertexConnectivity(g)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConnectivity, err)
	}
	if k < 1 {
		return 0, fmt.Errorf("%w: graph is disconnected", ErrConnectivity)
	}
	return k - 1, nil
}

// separator returns opts.Separator, or else a minimum separating set of
// g, after checking that it has at least t+1 nodes.
func separator(g *graph.Graph, opts Options, t int) ([]int, error) {
	m := opts.Separator
	if m == nil {
		var err error
		if m, err = connectivity.MinimumSeparator(g); err != nil {
			return nil, fmt.Errorf("%w: no separating set: %v", ErrNotApplicable, err)
		}
	}
	if len(m) < t+1 {
		return nil, fmt.Errorf("%w: separator size %d < t+1 = %d", ErrConnectivity, len(m), t+1)
	}
	return m, nil
}

// concentrator returns the first k nodes of opts.Concentrator, checked
// to be a neighborhood set, or else of the greedy neighborhood set of g.
func concentrator(g *graph.Graph, opts Options, k int) ([]int, error) {
	m := opts.Concentrator
	if m == nil {
		return NeighborhoodSetAtLeast(g, k)
	}
	if len(m) < k {
		return nil, fmt.Errorf("%w: concentrator size %d < required K = %d", ErrNotApplicable, len(m), k)
	}
	if err := CheckNeighborhoodSet(g, m[:k]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNotApplicable, err)
	}
	return m[:k], nil
}

// KernelInfo describes a constructed kernel routing.
type KernelInfo struct {
	T         int   // tolerated faults
	Bound     int   // proven diameter bound at T faults: max{2t, 4} (Thm 3); at ⌊t/2⌋ faults it is 4 (Thm 4)
	Separator []int // the concentrator M (a minimum separating set, |M| = t+1)
}

// Kernel builds the basic kernel routing of Dolev et al. (1984) as
// presented in Section 3 of the paper: choose a minimal separating set M
// of size t+1, give every node x ∉ M a tree routing to M (Component
// KERNEL 1) and every adjacent pair the direct edge route (Component
// KERNEL 2). The result is bidirectional, (max{2t, 4}, t)-tolerant
// (Theorem 3: tree routings guarantee at most two hops to and from the
// concentrator) and (4, ⌊t/2⌋)-tolerant (Theorem 4).
func Kernel(g *graph.Graph, opts Options) (*routing.Routing, *KernelInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := separator(g, opts, t)
	if err != nil {
		return nil, nil, err
	}
	// Components KERNEL 1 and KERNEL 2.
	r, err := treeRouting(g, treesInto(g, m), t, true)
	if err != nil {
		return nil, nil, err
	}
	return r, &KernelInfo{T: t, Bound: max(2*t, 4), Separator: m}, nil
}
