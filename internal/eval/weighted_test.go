package eval

import (
	"ftroute/internal/eval/oracle"
	"reflect"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

func petersenTables(t *testing.T) (*routing.FailoverTables, *routing.Routing) {
	t.Helper()
	g := gen.Petersen()
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	return routing.FailoverFromRouting(r), r
}

// weightedScore is the λ objective the SkippedWeight comparator ranks by.
func weightedScore(s CutStats, lambda float64) float64 {
	return float64(s.Disrupted()) + lambda*float64(s.Skipped)
}

func TestSkippedWeightMatchesLegacy(t *testing.T) {
	ft, _ := petersenTables(t)
	g := gen.Petersen()
	for _, cfg := range []Config{
		{Mode: Exhaustive, SkippedWeight: 0.7},
		{Samples: 50, Seed: 7, Greedy: true, SkippedWeight: 0.7},
	} {
		eng := WorstMixedFaults(ft, g, 2, cfg)
		leg := fromOracleMixedCuts(oracle.WorstMixedFaults(ft, g, 2, oc(cfg)))
		if !reflect.DeepEqual(eng, leg) {
			t.Fatalf("cfg %+v: engine %v, legacy %v", cfg, eng, leg)
		}
	}
}

// TestSkippedWeightZeroIsPlain pins the λ=0 contract: the default
// weight changes nothing, bit for bit, against the legacy oracle.
func TestSkippedWeightZeroIsPlain(t *testing.T) {
	ft, _ := petersenTables(t)
	g := gen.Petersen()
	cfg := Config{Mode: Exhaustive}
	plain := WorstMixedFaults(ft, g, 2, cfg)
	cfg.SkippedWeight = 0
	again := WorstMixedFaults(ft, g, 2, cfg)
	leg := fromOracleMixedCuts(oracle.WorstMixedFaults(ft, g, 2, oc(cfg)))
	if !reflect.DeepEqual(plain, again) || !reflect.DeepEqual(plain, leg) {
		t.Fatalf("λ=0 not bit-for-bit: engine %v, again %v, legacy %v", plain, again, leg)
	}
}

// TestSkippedWeightPrefersSkipped checks that a large λ makes node
// kills (which only score through Skipped) attractive: the weighted
// adversary's witness must dominate the unweighted witness under the
// weighted objective, and must actually skip pairs.
func TestSkippedWeightPrefersSkipped(t *testing.T) {
	ft, _ := petersenTables(t)
	g := gen.Petersen()
	const lambda = 1000
	plain := WorstMixedFaults(ft, g, 1, Config{Mode: Exhaustive})
	heavy := WorstMixedFaults(ft, g, 1, Config{Mode: Exhaustive, SkippedWeight: lambda})
	if heavy.Stats.Skipped == 0 {
		t.Fatalf("λ=%v witness skips nothing: %v", float64(lambda), heavy)
	}
	if weightedScore(heavy.Stats, lambda) < weightedScore(plain.Stats, lambda) {
		t.Fatalf("weighted witness %v scores below unweighted witness %v", heavy, plain)
	}
	if got := EvaluateMixedFaults(ft, heavy.WorstNodes, heavy.WorstCuts); got != heavy.Stats {
		t.Fatalf("witness re-evaluates to %v, result claims %v", got, heavy.Stats)
	}
}

// TestProfileMixedConsistency differentials ProfileMixed against
// MaxDiameterMixed: the worst diameter over sets of size <= k must be
// the max over the exact-size profile prefix, with -1 entries mapping
// to disconnection.
func TestProfileMixedConsistency(t *testing.T) {
	g, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	const f = 2
	prof := ProfileMixed(r, f, Config{Mode: Exhaustive})
	if len(prof) != f+1 {
		t.Fatalf("profile has %d entries, want %d", len(prof), f+1)
	}
	if base := MaxDiameterMixed(r, 0, Config{Mode: Exhaustive}); prof[0] != base.MaxDiameter {
		t.Fatalf("prof[0] = %d, fault-free diameter = %d", prof[0], base.MaxDiameter)
	}
	for k := 0; k <= f; k++ {
		cum := MaxDiameterMixed(r, k, Config{Mode: Exhaustive})
		disc, worst := false, -1
		for j := 0; j <= k; j++ {
			if prof[j] < 0 {
				disc = true
			} else if prof[j] > worst {
				worst = prof[j]
			}
		}
		if disc != cum.Disconnected {
			t.Fatalf("k=%d: profile prefix disconnection %v, MaxDiameterMixed %v", k, disc, cum.Disconnected)
		}
		if !disc && worst != cum.MaxDiameter {
			t.Fatalf("k=%d: profile prefix max %d, MaxDiameterMixed %d", k, worst, cum.MaxDiameter)
		}
	}
	// The engine path and the oracle's rebuild-per-set SurvivingGraphMixed
	// path must agree.
	legacy := oracle.ProfileMixed(r, f, oc(Config{Mode: Exhaustive}))
	if !reflect.DeepEqual(prof, legacy) {
		t.Fatalf("engine profile %v, legacy profile %v", prof, legacy)
	}
}

func TestCheckToleranceMixedAgrees(t *testing.T) {
	g, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	for f := 2; f >= 1; f-- {
		base := MaxDiameterMixed(r, f, Config{Mode: Exhaustive})
		if base.Disconnected {
			continue
		}
		cfg := Config{Mode: Exhaustive}
		if err := CheckToleranceMixed(r, base.MaxDiameter, f, cfg); err != nil {
			t.Fatalf("f=%d: %v", f, err)
		}
		if err := CheckToleranceMixed(r, base.MaxDiameter-1, f, cfg); err == nil {
			t.Fatalf("f=%d: claimed tolerance below the true worst case", f)
		}
		return
	}
	t.Fatal("Q3 mixed f=1 should not disconnect the surviving route graph")
}
