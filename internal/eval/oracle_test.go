package eval

import (
	"math/rand"

	"ftroute/internal/eval/oracle"
	"ftroute/internal/graph"
)

// testSource is a routing both the engines and the rebuild-per-set
// oracle can search.
type testSource interface {
	RouteSource
	oracle.MixedSurvivor
}

// oc converts a Config to the oracle's.
func oc(cfg Config) oracle.Config {
	return oracle.Config{Mode: oracle.Mode(cfg.Mode), Samples: cfg.Samples, Seed: cfg.Seed,
		Greedy: cfg.Greedy, SkippedWeight: cfg.SkippedWeight}
}

func fromOracle(r oracle.Result) Result { return Result(r) }

func fromOracleMixed(r oracle.MixedResult) MixedResult { return MixedResult(r) }

func fromOracleBeyond(r oracle.BeyondResult) BeyondResult { return BeyondResult(r) }

func fromOracleCuts(r oracle.CutResult) CutResult {
	return CutResult{Worst: r.Worst, Stats: CutStats(r.Stats), Evaluated: r.Evaluated}
}

func fromOracleMixedCuts(r oracle.MixedCutResult) MixedCutResult {
	return MixedCutResult{WorstNodes: r.WorstNodes, WorstCuts: r.WorstCuts, Stats: CutStats(r.Stats), Evaluated: r.Evaluated}
}

// drawFaults draws one uniform fault set of size exactly f (f <= n).
func drawFaults(rng *rand.Rand, n, f int) *graph.Bitset {
	faults := graph.NewBitset(n)
	for faults.Count() < f {
		faults.Add(rng.Intn(n))
	}
	return faults
}
