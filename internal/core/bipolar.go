package core

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// BipolarInfo describes a constructed bipolar routing.
type BipolarInfo struct {
	T      int // tolerated faults
	R1, R2 int // the two-trees roots
	Bound  int // proven diameter bound: 4 unidirectional (Thm 20), 5 bidirectional (Thm 23)
	M1, M2 []int
}

// bipolarSets gathers the structure shared by both bipolar routings:
// root neighbor sets M1, M2 and membership masks for M = M1 ∪ M2 and the
// depth-2 trees Γ1 = ∪ Γ(m), m ∈ M1 and Γ2 likewise (note r1 ∈ Γ1 and
// r2 ∈ Γ2, since every Γ(m) for m ∈ M1 contains r1).
type bipolarSets struct {
	m1, m2     []int
	inM1, inM2 *graph.Bitset
	inG1, inG2 *graph.Bitset
	gamma1     [][]int // Γ(m) for m ∈ M1, by index
	gamma2     [][]int
}

func newBipolarSets(g *graph.Graph, tt *TwoTrees) *bipolarSets {
	n := g.N()
	s := &bipolarSets{
		m1:   g.Neighbors(tt.R1),
		m2:   g.Neighbors(tt.R2),
		inM1: graph.NewBitset(n),
		inM2: graph.NewBitset(n),
		inG1: graph.NewBitset(n),
		inG2: graph.NewBitset(n),
	}
	for _, m := range s.m1 {
		s.inM1.Add(m)
		nb := g.Neighbors(m)
		s.gamma1 = append(s.gamma1, nb)
		for _, v := range nb {
			s.inG1.Add(v)
		}
	}
	for _, m := range s.m2 {
		s.inM2.Add(m)
		nb := g.Neighbors(m)
		s.gamma2 = append(s.gamma2, nb)
		for _, v := range nb {
			s.inG2.Add(v)
		}
	}
	return s
}

// appendGammaJobs appends the tree routings shared by both bipolar
// routings: from every m ∈ M1 to every Γ(m'), m' ∈ M1, then likewise for
// M2.
func (s *bipolarSets) appendGammaJobs(jobs []treeJob) []treeJob {
	for _, m := range s.m1 {
		for _, gset := range s.gamma1 {
			jobs = append(jobs, treeJob{m, gset})
		}
	}
	for _, m := range s.m2 {
		for _, gset := range s.gamma2 {
			jobs = append(jobs, treeJob{m, gset})
		}
	}
	return jobs
}

// resolveBipolar computes t and the two-trees witness.
func resolveBipolar(g *graph.Graph, opts Options) (int, *TwoTrees, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return 0, nil, err
	}
	tt, err := FindTwoTrees(g)
	if err != nil {
		return 0, nil, err
	}
	// Tree routings into M1/M2 need t+1 distinct endpoints.
	if len(g.Neighbors(tt.R1)) < t+1 || len(g.Neighbors(tt.R2)) < t+1 {
		return 0, nil, fmt.Errorf("%w: root degree below t+1", ErrNotApplicable)
	}
	return t, tt, nil
}

// BipolarUnidirectional builds the unidirectional bipolar routing of
// Section 5 (Figure 3) on a graph with the two-trees property.
// Components (routes directed from the root of each tree routing toward
// the separating set):
//
//	B-POL 1: every x ∉ M1 has a tree routing to M1;
//	B-POL 2: every x ∉ M2 has a tree routing to M2;
//	B-POL 3: every m ∈ M1 has tree routings to every Γ(m'), m' ∈ M1;
//	B-POL 4: every m ∈ M2 has tree routings to every Γ(m'), m' ∈ M2;
//	B-POL 5: pairs routed in only one direction get the reversed path;
//	B-POL 6: every adjacent pair uses the direct edge route.
//
// By Theorem 20 the result is (4, t)-tolerant.
func BipolarUnidirectional(g *graph.Graph, opts Options) (*routing.Routing, *BipolarInfo, error) {
	t, tt, err := resolveBipolar(g, opts)
	if err != nil {
		return nil, nil, err
	}
	s := newBipolarSets(g, tt)
	var jobs []treeJob
	for x := 0; x < g.N(); x++ {
		// Component B-POL 1.
		if !s.inM1.Has(x) {
			jobs = append(jobs, treeJob{x, s.m1})
		}
		// Component B-POL 2.
		if !s.inM2.Has(x) {
			jobs = append(jobs, treeJob{x, s.m2})
		}
	}
	// Components B-POL 3 and B-POL 4.
	jobs = s.appendGammaJobs(jobs)
	r := routing.New(g)
	if err := compileTrees(g, jobs, t+1, setTrees(r)); err != nil {
		return nil, nil, err
	}
	// Component B-POL 6 before B-POL 5 so that edge pairs are complete in
	// both directions and are not double-filled.
	if err := r.AddEdgeRoutes(); err != nil {
		return nil, nil, err
	}
	// Component B-POL 5.
	r.SymmetrizeMissing()
	return r, &BipolarInfo{T: t, R1: tt.R1, R2: tt.R2, Bound: 4, M1: s.m1, M2: s.m2}, nil
}

// BipolarBidirectional builds the bidirectional bipolar routing of
// Section 5. Components (each route and its reverse installed):
//
//	2B-POL 1: every x ∉ M ∪ Γ1 has a tree routing to M1;
//	2B-POL 2: every x ∉ M2 ∪ Γ2 has a tree routing to M2 (note the
//	          asymmetry: members of M1 route into M2, giving Property
//	          2B-POL 3);
//	2B-POL 3: every m ∈ M1 has tree routings to every Γ(m'), m' ∈ M1;
//	2B-POL 4: every m ∈ M2 has tree routings to every Γ(m'), m' ∈ M2;
//	2B-POL 5: every adjacent pair uses the direct edge route.
//
// The exclusions of Γ1 (resp. Γ2) keep the bidirectional closure
// conflict-free: a node of Γ1 is a potential endpoint of the component
// 2B-POL 3 routings, which already define its routes to M1 nodes.
// By Theorem 23 the result is (5, t)-tolerant.
func BipolarBidirectional(g *graph.Graph, opts Options) (*routing.Routing, *BipolarInfo, error) {
	t, tt, err := resolveBipolar(g, opts)
	if err != nil {
		return nil, nil, err
	}
	s := newBipolarSets(g, tt)
	var jobs []treeJob
	for x := 0; x < g.N(); x++ {
		// Component 2B-POL 1: x ∉ M ∪ Γ1.
		if !s.inM1.Has(x) && !s.inM2.Has(x) && !s.inG1.Has(x) {
			jobs = append(jobs, treeJob{x, s.m1})
		}
		// Component 2B-POL 2: x ∉ M2 ∪ Γ2.
		if !s.inM2.Has(x) && !s.inG2.Has(x) {
			jobs = append(jobs, treeJob{x, s.m2})
		}
	}
	// Components 2B-POL 3 and 2B-POL 4.
	jobs = s.appendGammaJobs(jobs)
	r := routing.NewBidirectional(g)
	if err := compileTrees(g, jobs, t+1, setTrees(r)); err != nil {
		return nil, nil, err
	}
	// Component 2B-POL 5.
	if err := r.AddEdgeRoutes(); err != nil {
		return nil, nil, err
	}
	return r, &BipolarInfo{T: t, R1: tt.R1, R2: tt.R2, Bound: 5, M1: s.m1, M2: s.m2}, nil
}
