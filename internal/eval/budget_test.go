package eval

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ftroute/internal/eval/oracle"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// budgetConfigs are the two search modes the budget tests run.
var budgetConfigs = map[string]Config{
	"exhaustive": {Mode: Exhaustive},
	"sampled":    {Mode: Sampled, Samples: 3, Seed: 1, Greedy: true},
}

// TestNegativeBudgets runs every entry point at f = −1 and f = −2: the
// at-most-f searches behave exactly as at f = 0, the profiles are
// empty, and BeyondTolerance evaluates nothing.
func TestNegativeBudgets(t *testing.T) {
	r := cycleRouting(t, 8)
	g := r.Graph()
	ft := routing.FailoverFromRouting(r)
	ex := Config{Mode: Exhaustive}
	runs := map[string]func(f int) string{
		"CheckTolerance":      func(f int) string { return fmt.Sprint(CheckTolerance(r, 100, f, ex)) },
		"CheckToleranceMixed": func(f int) string { return fmt.Sprint(CheckToleranceMixed(r, 100, f, ex)) },
		"ConcentratorAdversary": func(f int) string {
			return ConcentratorAdversary(r, f, []int{0, 2, 4}).String()
		},
		"ConcentratorEdgeAdversary": func(f int) string {
			return ConcentratorEdgeAdversary(r, f, []routing.EdgeFault{{U: 0, V: 1}, {U: 4, V: 5}}).String()
		},
		"GreedyEdgeAdversary": func(f int) string { return GreedyEdgeAdversary(r, f).String() },
	}
	for name, cfg := range budgetConfigs {
		runs["MaxDiameter "+name] = func(f int) string { return MaxDiameter(r, f, cfg).String() }
		runs["MaxDiameterParallel "+name] = func(f int) string { return MaxDiameterParallel(r, f, cfg, 2).String() }
		runs["MaxDiameterMixed "+name] = func(f int) string { return MaxDiameterMixed(r, f, cfg).String() }
		runs["MaxDiameterMixedParallel "+name] = func(f int) string { return MaxDiameterMixedParallel(r, f, cfg, 2).String() }
		runs["WorstLinkCuts "+name] = func(f int) string { return WorstLinkCuts(ft, g, f, cfg).String() }
		runs["WorstLinkCutsParallel "+name] = func(f int) string { return WorstLinkCutsParallel(ft, g, f, cfg, 2).String() }
		runs["WorstMixedFaults "+name] = func(f int) string { return WorstMixedFaults(ft, g, f, cfg).String() }
		runs["WorstMixedFaultsParallel "+name] = func(f int) string {
			return WorstMixedFaultsParallel(ft, g, f, cfg, 2).String()
		}
		runs["CheckTolerance "+name] = func(f int) string { return fmt.Sprint(CheckTolerance(r, 3, f, cfg)) }
	}
	for name, run := range runs {
		want := run(0)
		for _, f := range []int{-1, -2} {
			if got := run(f); got != want {
				t.Errorf("%s f=%d: %s, want the f=0 result %s", name, f, got, want)
			}
		}
	}
	for _, f := range []int{-1, -2} {
		for name, cfg := range budgetConfigs {
			if p := Profile(r, f, cfg); p == nil || len(p) != 0 {
				t.Errorf("Profile %s f=%d = %#v, want an empty slice", name, f, p)
			}
			if p := ProfileMixed(r, f, cfg); p == nil || len(p) != 0 {
				t.Errorf("ProfileMixed %s f=%d = %#v, want an empty slice", name, f, p)
			}
		}
		if res := BeyondTolerance(r, f); res.Evaluated != 0 {
			t.Errorf("BeyondTolerance f=%d evaluated %d sets", f, res.Evaluated)
		}
		if res := BeyondToleranceMixed(r, f); res.Evaluated != 0 {
			t.Errorf("BeyondToleranceMixed f=%d evaluated %d sets", f, res.Evaluated)
		}
	}
}

// TestHugeBudgetClampsProfile runs both profiles at f = 2^60, which
// once asked for an exabyte of rows: the budget clamps to the universe,
// so each profile equals the one at f = |universe|, with a row for every
// size 0..|universe|.
func TestHugeBudgetClampsProfile(t *testing.T) {
	r := cycleRouting(t, 6)
	for name, cfg := range budgetConfigs {
		for _, c := range []struct {
			run   func(RouteSource, int, Config) []int
			items int
		}{{Profile, r.Graph().N()}, {ProfileMixed, r.Graph().N() + r.Graph().M()}} {
			want := c.run(r, c.items, cfg)
			if len(want) != c.items+1 {
				t.Fatalf("%s: profile at f = %d has %d rows, want %d", name, c.items, len(want), c.items+1)
			}
			if got := c.run(r, 1<<60, cfg); !slices.Equal(got, want) {
				t.Errorf("%s: profile at f = 2^60 is %v, want %v", name, got, want)
			}
		}
	}
}

// TestConcentratorDuplicateTargets pins the target cleanup: duplicated
// and out-of-range node targets give exactly the result of the deduped
// list in first-occurrence order.
func TestConcentratorDuplicateTargets(t *testing.T) {
	r := cycleRouting(t, 8)
	want := ConcentratorAdversary(r, 2, []int{0, 1, 2})
	if want.Evaluated != 7 { // 1 + 3 + C(3,2)
		t.Fatalf("deduped targets evaluated %d sets, want 7", want.Evaluated)
	}
	for _, targets := range [][]int{{0, 0, 1, 2}, {0, 1, 0, 2, 1, 2}, {-1, 0, 8, 1, 2, 99}} {
		if got := ConcentratorAdversary(r, 2, targets); got.String() != want.String() {
			t.Errorf("targets %v: %v, want %v", targets, got, want)
		}
	}
}

// TestSampledAcrossBlocks draws more sets than fit in one block of the
// sampled search (two blocks of sampleBlock and seven more) and pins the
// sampling entry points to the oracle, which draws every set up front,
// at 1, 2 and 8 workers: at f = 1 nothing freezes, at f = 2 the first
// block disconnects and the later ones only count.
func TestSampledAcrossBlocks(t *testing.T) {
	cfg := Config{Mode: Sampled, Samples: 2*sampleBlock + 7, Seed: 5, Greedy: true}
	r := cycleRouting(t, 9)
	it := walkEngineInstances(t)[1] // Q3 reinforced
	wantProfile := oracle.Profile(r, 2, oc(cfg))
	wantWalk := fromOracleMixedCuts(oracle.WorstMixedFaults(it.ft, it.g, 2, oc(cfg)))
	for _, workers := range []int{1, 2, 8} {
		for f := 1; f <= 2; f++ {
			want := fromOracleMixed(oracle.MaxDiameterMixed(r, f, oc(cfg)))
			sameMixedResult(t, fmt.Sprintf("MaxDiameterMixed f=%d w=%d", f, workers), MaxDiameterMixedParallel(r, f, cfg, workers), want)
		}
		if got := profile(r, 2, cfg, workers, false); !slices.Equal(got, wantProfile) {
			t.Fatalf("w=%d: profile %v, oracle %v", workers, got, wantProfile)
		}
		if got := WorstMixedFaultsParallel(it.ft, it.g, 2, cfg, workers); !reflect.DeepEqual(got, wantWalk) {
			t.Fatalf("w=%d: WorstMixedFaults %v, oracle %v", workers, got, wantWalk)
		}
	}
}

// lastDraw is a test evaluator that scores every set above all sets
// scored before it, so a serial search's witness is the last set it
// scored.
type lastDraw struct{ scored int }

func (l *lastDraw) toggle(int, bool)          {}
func (l *lastDraw) clone() *lastDraw          { return &lastDraw{} }
func (l *lastDraw) reset()                    {}
func (l *lastDraw) score(_, _ int) int        { l.scored++; return l.scored }
func (l *lastDraw) probe(_ int, b, t int) int { return l.score(b, t) }
func (l *lastDraw) better(a, b int) bool      { return a > b }
func (l *lastDraw) final(int) bool            { return false }

// TestSampledDrawsContinueAcrossBlocks pins the draw order the blocks
// keep: the last of 2·sampleBlock+7 sets is the last set one rng draws
// when every set is drawn up front, as the oracle does.
func TestSampledDrawsContinueAcrossBlocks(t *testing.T) {
	const n, f, samples, seed = 40, 3, 2*sampleBlock + 7, 9
	s := newSearch(&lastDraw{}, graph.NewItems(graph.New(n)).Universe(true, false), 1)
	var b best[int]
	s.sampled(&b, f, samples, seed)
	rng := rand.New(rand.NewSource(seed))
	var want []int
	for i := 0; i < samples; i++ {
		ids := graph.NewBitset(n)
		for ids.Count() < f {
			ids.Add(rng.Intn(n))
		}
		want = ids.Elements()
	}
	if b.evaluated != samples || b.score != samples || !slices.Equal(b.items, want) {
		t.Fatalf("sampled scored %d sets, last %v (score %d); want %d, last %v", b.evaluated, b.items, b.score, samples, want)
	}
}
