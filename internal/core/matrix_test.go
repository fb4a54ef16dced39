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

			// Kernel applies everywhere in the matrix.
			kr, ki, err := Kernel(fam.g, opts)
			if err != nil {
				t.Fatalf("kernel: %v", err)
			}
			if err := kr.Validate(); err != nil {
				t.Fatalf("kernel validate: %v", err)
			}
			if err := eval.CheckTolerance(kr, ki.Bound, tol, sampled); err != nil {
				t.Fatalf("kernel tolerance: %v", err)
			}
			built++

			type attempt struct {
				name  string
				build func() (*routing.Routing, int, error) // routing, bound
			}
			attempts := []attempt{
				{"circular", func() (*routing.Routing, int, error) {
					r, info, err := Circular(fam.g, opts)
					if err != nil {
						return nil, 0, err
					}
					return r, info.Bound, nil
				}},
				{"tri-circular", func() (*routing.Routing, int, error) {
					r, info, err := TriCircular(fam.g, opts)
					if err != nil {
						return nil, 0, err
					}
					return r, info.Bound, nil
				}},
				{"bipolar-uni", func() (*routing.Routing, int, error) {
					r, info, err := BipolarUnidirectional(fam.g, opts)
					if err != nil {
						return nil, 0, err
					}
					return r, info.Bound, nil
				}},
				{"bipolar-bi", func() (*routing.Routing, int, error) {
					r, info, err := BipolarBidirectional(fam.g, opts)
					if err != nil {
						return nil, 0, err
					}
					return r, info.Bound, nil
				}},
			}
			for _, a := range attempts {
				r, bound, err := a.build()
				if errors.Is(err, ErrNotApplicable) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: unexpected error class: %v", a.name, err)
				}
				if err := r.Validate(); err != nil {
					t.Fatalf("%s validate: %v", a.name, err)
				}
				if err := eval.CheckTolerance(r, bound, tol, sampled); err != nil {
					t.Fatalf("%s tolerance: %v", a.name, err)
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
