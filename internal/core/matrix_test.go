package core

import (
	"errors"
	"testing"

	"ftroute/internal/connectivity"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// buildRow is one single-routing row of the construction tests: a
// construction Build builds, at the minimal concentrator size or not.
type buildRow struct {
	c        Construction
	minimalK bool
}

// builds are the five constructions, and the two ring constructions
// again at their minimal concentrator size.
var builds = []buildRow{
	{ConstructionKernel, false},
	{ConstructionCircular, false},
	{ConstructionCircular, true},
	{ConstructionTriCircular, false},
	{ConstructionTriCircular, true},
	{ConstructionBipolarUni, false},
	{ConstructionBipolarBi, false},
}

// build builds the row on g through Build.
func (b buildRow) build(g *graph.Graph, opts Options) (*Plan, error) {
	opts.MinimalK = b.minimalK
	return Build(g, b.c, opts)
}

// String labels the row in test failures.
func (b buildRow) String() string {
	if b.minimalK {
		return string(b.c) + " (minimal K)"
	}
	return string(b.c)
}

// TestConstructionMatrix builds every construction on a matrix of graph
// families; wherever a construction applies, its routing is validated
// and its theorem bound is spot-checked with sampled fault injection.
// Families where a construction does not apply must fail with
// ErrNotApplicable (never with a construction-internal error), which
// pins down the applicability frontier.
func TestConstructionMatrix(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle C16", mustGen(t)(gen.Cycle(16))},
		{"cycle C48", mustGen(t)(gen.Cycle(48))},
		{"grid 3x5", mustGen(t)(gen.Grid(3, 5))},
		{"torus 5x5", mustGen(t)(gen.Torus(5, 5))},
		{"hypercube Q4", mustGen(t)(gen.Hypercube(4))},
		{"CCC(3)", mustGen(t)(gen.CCC(3))},
		{"CCC(4)", mustGen(t)(gen.CCC(4))},
		{"butterfly BF(3)", mustGen(t)(gen.WrappedButterfly(3))},
		{"Petersen", gen.Petersen()},
		{"GP(12,5)", mustGen(t)(gen.GeneralizedPetersen(12, 5))},
		{"prism Y8", mustGen(t)(gen.Prism(8))},
		{"wheel W13", mustGen(t)(gen.Wheel(13))},
		{"icosahedron", gen.Icosahedron()},
		{"harary H(4,14)", mustGen(t)(gen.Harary(4, 14))},
		{"K3,4", mustGen(t)(gen.CompleteBipartite(3, 4))},
	}
	sampled := eval.Config{Mode: eval.Sampled, Samples: 60, Seed: 13, Greedy: true}
	built := 0
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			k, _, err := connectivity.VertexConnectivity(fam.g)
			if err != nil {
				t.Fatalf("connectivity: %v", err)
			}
			if k < 2 {
				t.Skipf("κ=%d: below the paper's regime", k)
			}
			tol := k - 1
			opts := Options{Tolerance: tol}

			// Kernel applies everywhere in the matrix; the others may
			// fail, but only with ErrNotApplicable.
			for _, b := range builds {
				p, err := b.build(fam.g, opts)
				if errors.Is(err, ErrNotApplicable) && b.c != ConstructionKernel {
					continue
				}
				if err != nil {
					t.Fatalf("%s: unexpected error class: %v", b, err)
				}
				if p.T != tol {
					t.Fatalf("%s: plan T = %d, want %d", b, p.T, tol)
				}
				if err := p.Routing.Validate(); err != nil {
					t.Fatalf("%s validate: %v", b, err)
				}
				if err := eval.CheckTolerance(p.Routing, p.Bound, tol, sampled); err != nil {
					t.Fatalf("%s tolerance: %v", b, err)
				}
				built++
			}
		})
	}
	if built < len(families) {
		t.Fatalf("only %d constructions built across %d families", built, len(families))
	}
}

// TestAutoAcrossFamilies runs the planner over the same matrix and
// verifies the plan's own claimed bound with sampled fault injection.
func TestAutoAcrossFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle C30", mustGen(t)(gen.Cycle(30))},
		{"torus 4x4", mustGen(t)(gen.Torus(4, 4))},
		{"CCC(3)", mustGen(t)(gen.CCC(3))},
		{"GP(10,3)", mustGen(t)(gen.GeneralizedPetersen(10, 3))},
		{"icosahedron", gen.Icosahedron()},
	}
	sampled := eval.Config{Mode: eval.Sampled, Samples: 60, Seed: 29, Greedy: true}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			plan, err := Auto(fam.g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Routing == nil || plan.Bound <= 0 || plan.T <= 0 {
				t.Fatalf("plan = %+v", plan)
			}
			if err := eval.CheckTolerance(plan.Routing, plan.Bound, plan.T, sampled); err != nil {
				t.Fatalf("plan %s: %v", plan.Construction, err)
			}
		})
	}
}

// TestBuildMatchesConstructors: Build returns its constructor's routing,
// the (Bound, T) its Info reports and the structure it chose, or the
// constructor's error unchanged.
func TestBuildMatchesConstructors(t *testing.T) {
	c9, c10, c45, ccc3 := mustGen(t)(gen.Cycle(9)), mustGen(t)(gen.Cycle(10)), mustGen(t)(gen.Cycle(45)), mustGen(t)(gen.CCC(3))
	kr, ki, err := Kernel(ccc3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cr, ci, err := Circular(c9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, ti, err := TriCircular(c45, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ur, ui, err := BipolarUnidirectional(c10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	br, bi, err := BipolarBidirectional(c10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g         *graph.Graph
		c         Construction
		r         *routing.Routing
		bound, tt int
		reason    string
	}{
		{ccc3, ConstructionKernel, kr, ki.Bound, ki.T, "separator [1 2 3]"},
		{c9, ConstructionCircular, cr, ci.Bound, ci.T, "K=3"},
		{c45, ConstructionTriCircular, tr, ti.Bound, ti.T, "K=15"},
		{c10, ConstructionBipolarUni, ur, ui.Bound, ui.T, "roots (0, 5)"},
		{c10, ConstructionBipolarBi, br, bi.Bound, bi.T, "roots (0, 5)"},
	} {
		p, err := Build(tc.g, tc.c, Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.c, err)
		}
		if p.Construction != tc.c || p.Bound != tc.bound || p.T != tc.tt || p.Reason != tc.reason ||
			p.Bidirected != tc.r.Bidirectional() || !p.Routing.Equal(tc.r) {
			t.Fatalf("%s: plan %+v, want (%d, %d), %q and the constructor's routing", tc.c, p, tc.bound, tc.tt, tc.reason)
		}
	}
	_, _, want := BipolarUnidirectional(ccc3, Options{})
	if _, err := Build(ccc3, ConstructionBipolarUni, Options{}); want == nil || err == nil || err.Error() != want.Error() {
		t.Fatalf("bipolar on CCC(3): err = %v, want %v", err, want)
	}
	if _, err := Build(c9, "magic", Options{}); err == nil {
		t.Fatal("an unknown construction should fail")
	}
}
