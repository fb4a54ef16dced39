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

// fromOracle maps a node-only oracle result onto the diameter report,
// whose link part a node-only search leaves nil.
func fromOracle(r oracle.Result) MixedResult {
	return MixedResult{MaxDiameter: r.MaxDiameter, Disconnected: r.Disconnected, WorstNodeFaults: r.WorstFaults, Evaluated: r.Evaluated}
}

func fromOracleMixed(r oracle.MixedResult) MixedResult { return MixedResult(r) }

func fromOracleBeyond(r oracle.BeyondResult) BeyondResult { return BeyondResult(r) }

// fromOracleCuts maps a link-only oracle result onto the walk report,
// whose node part a link-only search reports as []int{}.
func fromOracleCuts(r oracle.CutResult) MixedCutResult {
	return MixedCutResult{WorstNodes: []int{}, WorstCuts: r.Worst, Stats: CutStats(r.Stats), Evaluated: r.Evaluated}
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
