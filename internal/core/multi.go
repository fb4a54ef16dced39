package core

import (
	"fmt"

	"ftroute/internal/connectivity"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// MultiInfo describes a constructed multirouting (Section 6).
type MultiInfo struct {
	T     int
	Limit int // routes allowed per pair
	Bound int // proven (or paper-claimed) diameter bound
	M     []int
}

// FullMultirouting implements observation (1) of Section 6: with t+1
// parallel routes per pair, choose t+1 internally disjoint paths between
// every pair of nodes; at most t faults leave at least one route alive,
// so the surviving graph has diameter 1 — a (1, t)-tolerant
// multirouting. Construction cost is quadratic in n; intended for small
// and medium graphs.
func FullMultirouting(g *graph.Graph, opts Options) (*routing.MultiRouting, *MultiInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	nodes := make([]int, g.N())
	for v := range nodes {
		nodes[v] = v
	}
	m := routing.NewMulti(g, t+1, true)
	if err := addDisjointPairs(m, nodes, t+1); err != nil {
		return nil, nil, err
	}
	return m, &MultiInfo{T: t, Limit: t + 1, Bound: 1}, nil
}

// KernelMultirouting implements observation (2) of Section 6: the basic
// kernel routing augmented with t+1 parallel routes between nodes
// *inside* the concentrator M. Any two concentrator members then remain
// adjacent in the surviving graph, so the diameter is at most 3 — a
// (3, t)-tolerant multirouting with multi-routes confined to the
// t(t+1)/2 concentrator pairs.
func KernelMultirouting(g *graph.Graph, opts Options) (*routing.MultiRouting, *MultiInfo, error) {
	kr, info, err := Kernel(g, opts)
	if err != nil {
		return nil, nil, err
	}
	t := info.T
	m := routing.NewMulti(g, t+1, true)
	kr.Each(func(u, v int, p routing.Path) {
		if u < v { // Add installs both directions
			if err2 := m.Add(p); err2 != nil && err == nil {
				err = err2
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	if err := addDisjointPairs(m, info.Separator, t+1); err != nil {
		return nil, nil, err
	}
	return m, &MultiInfo{T: t, Limit: t + 1, Bound: 3, M: info.Separator}, nil
}

// TwoRouteMultirouting implements observation (3) of Section 6: with at
// most two parallel routes per pair, a single separating set M supports
// a bipolar-style routing:
//
//	MULT 1: a tree routing from each x ∉ M to M;
//	MULT 2: tree routings from each m ∈ M to Γ(m') for every m' ∈ M
//	        (degenerating to direct edges for adjacent members);
//	MULT 3: direct edge routes.
//
// The paper states the construction and leaves its bound implicit ("a
// routing similar to the bipolar routing"); by the bipolar argument the
// surviving diameter is at most 4, which experiment E11 verifies
// empirically.
func TwoRouteMultirouting(g *graph.Graph, opts Options) (*routing.MultiRouting, *MultiInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	sep, err := separator(g, opts, t)
	if err != nil {
		return nil, nil, err
	}
	m := routing.NewMulti(g, 2, true)
	// Component MULT 1.
	if err := compileTrees(g, treesInto(g, sep), t+1, installPaths(m.Add)); err != nil {
		return nil, nil, err
	}
	// Component MULT 2: m_i to the neighborhood of every other member.
	// Unlike the bipolar construction, the Γ(m_j) sets of a separating
	// set may overlap, so a pair can be offered more than two routes;
	// the paper's two-route budget is honored by keeping the first two
	// (AddCapped). Experiment E11 measures the resulting tolerance.
	var jobs []treeJob
	for _, mi := range sep {
		for _, mj := range sep {
			// Adjacent members reach each other via MULT 3 directly.
			if mi != mj && !g.HasEdge(mi, mj) {
				jobs = append(jobs, treeJob{mi, g.Neighbors(mj)})
			}
		}
	}
	capped := func(p routing.Path) error {
		_, err := m.AddCapped(p)
		return err
	}
	if err := compileTrees(g, jobs, t+1, installPaths(capped)); err != nil {
		return nil, nil, err
	}
	// Component MULT 3.
	for _, e := range g.Edges() {
		if err := m.Add(routing.Path{e[0], e[1]}); err != nil {
			return nil, nil, err
		}
	}
	return m, &MultiInfo{T: t, Limit: 2, Bound: 4, M: sep}, nil
}

// addDisjointPairs gives every pair of nodes k internally disjoint
// routes in m, the pairs taken in the order of nodes.
func addDisjointPairs(m *routing.MultiRouting, nodes []int, k int) error {
	sp := connectivity.NewSplit(m.Graph())
	for i, u := range nodes {
		for _, v := range nodes[i+1:] {
			paths, err := sp.DisjointPaths(u, v, k)
			if err != nil {
				return fmt.Errorf("%w: %v", ErrNotApplicable, err)
			}
			for _, p := range paths {
				if err := m.Add(routing.Path(p)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
