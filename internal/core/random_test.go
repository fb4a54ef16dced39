package core

import (
	"errors"
	"math/rand"
	"testing"

	"ftroute/internal/connectivity"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// TestKernelOnRandomGraphs is a randomized end-to-end battery: sample
// connected random graphs, compute κ exactly, build the kernel routing
// and verify Theorem 3's bound exhaustively. This exercises separator
// extraction, tree routings and the surviving-graph machinery on
// irregular, non-symmetric inputs where hand-reasoning is impossible.
func TestKernelOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	verified := 0
	for trial := 0; trial < 30 && verified < 12; trial++ {
		n := 8 + rng.Intn(8)
		g, _, err := gen.GnpConnected(n, 0.35, rng.Int63(), 60)
		if err != nil {
			continue
		}
		k, sep, err := connectivity.VertexConnectivity(g)
		if errors.Is(err, connectivity.ErrComplete) || k < 2 {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		tol := k - 1
		r, info, err := Kernel(g, Options{Tolerance: tol, Separator: sep})
		if err != nil {
			t.Fatalf("trial %d (n=%d κ=%d): %v", trial, n, k, err)
		}
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		// Exhaustive when cheap, sampled otherwise.
		cfg := eval.Config{Mode: eval.Exhaustive}
		if tol > 2 {
			cfg = eval.Config{Mode: eval.Sampled, Samples: 120, Seed: int64(trial), Greedy: true}
		}
		if err := eval.CheckTolerance(r, info.Bound, info.T, cfg); err != nil {
			t.Fatalf("trial %d (n=%d κ=%d): %v", trial, n, k, err)
		}
		verified++
	}
	if verified < 8 {
		t.Fatalf("only %d random instances verified", verified)
	}
}

// TestAutoOnRandomRegular verifies the planner end to end on random
// 3-regular instances: whatever construction it picks, its claimed
// bound must hold under sampled fault injection.
func TestAutoOnRandomRegular(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	verified := 0
	for trial := 0; trial < 10 && verified < 4; trial++ {
		g, _, err := gen.RandomRegularConnected(60, 3, rng.Int63(), 60)
		if err != nil {
			continue
		}
		ok, err := connectivity.IsKConnected(g, 3)
		if err != nil || !ok {
			continue
		}
		plan, err := Auto(g, Options{Tolerance: 2})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cfg := eval.Config{Mode: eval.Sampled, Samples: 80, Seed: int64(trial), Greedy: true}
		if err := eval.CheckTolerance(plan.Routing, plan.Bound, plan.T, cfg); err != nil {
			t.Fatalf("trial %d plan %s: %v", trial, plan.Construction, err)
		}
		verified++
	}
	if verified < 3 {
		t.Fatalf("only %d instances verified", verified)
	}
}

// randomFaults draws a fault set of size exactly f.
func randomFaults(rng *rand.Rand, n, f int) *graph.Bitset {
	b := graph.NewBitset(n)
	for b.Count() < f {
		b.Add(rng.Intn(n))
	}
	return b
}

// TestTreeRoutingSurvival verifies Lemma 1 directly on random inputs:
// with a tree routing from x to M installed and any fault set of size
// <= t avoiding x, some arc (x, y), y in M survives.
func TestTreeRoutingSurvival(t *testing.T) {
	g := mustGen(t)(gen.CCC(3))
	r, info, err := Kernel(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	inM := map[int]bool{}
	for _, m := range info.Separator {
		inM[m] = true
	}
	for trial := 0; trial < 200; trial++ {
		f := randomFaults(rng, g.N(), info.T)
		d := r.SurvivingGraph(f)
		for x := 0; x < g.N(); x++ {
			if f.Has(x) || inM[x] {
				continue
			}
			found := false
			for _, m := range info.Separator {
				if !f.Has(m) && d.HasArc(x, m) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trial %d: Lemma 1 violated at x=%d F=%v", trial, x, f)
			}
		}
	}
}
