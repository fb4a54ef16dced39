// Package oracle keeps the reference implementations of the fault-set
// searches in package eval: every probed set rebuilds the surviving
// route graph (SurvivingGraph, SurvivingGraphMixed) or re-walks every
// table pair from scratch, and every search mode is its own hand-written
// enumeration. It is the differential oracle for eval's incremental
// engines and single search driver, and the baseline of the engine
// benchmarks. Only tests and benchmarks import it.
//
// The result types mirror eval's field for field; the package does not
// import eval, so eval's own tests can import it.
package oracle

import (
	"fmt"
	"math/rand"
	"sort"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Survivor is anything that can produce a surviving route graph for a
// node fault set. *routing.Routing and *routing.MultiRouting implement
// it.
type Survivor interface {
	SurvivingGraph(faults *graph.Bitset) *graph.Digraph
	Graph() *graph.Graph
}

// MixedSurvivor is a Survivor that can also materialize the literal
// mixed (node ∪ link) surviving graph.
type MixedSurvivor interface {
	Survivor
	SurvivingGraphMixed(nodeFaults *graph.Bitset, edgeFaults []routing.EdgeFault) *graph.Digraph
}

// Mode selects how fault sets are searched.
type Mode int

const (
	// Exhaustive enumerates every fault set of size 0..f.
	Exhaustive Mode = iota
	// Sampled draws random fault sets, plus the optional greedy search.
	Sampled
)

// Config mirrors the fields of eval.Config the reference searches read.
type Config struct {
	Mode          Mode
	Samples       int
	Seed          int64
	Greedy        bool
	SkippedWeight float64
}

func (c Config) samples() int {
	if c.Samples <= 0 {
		return 200
	}
	return c.Samples
}

// Result mirrors eval.MixedResult of a node-only search, whose link
// part is nil.
type Result struct {
	MaxDiameter  int
	Disconnected bool
	WorstFaults  *graph.Bitset
	Evaluated    int
}

// String renders a result compactly, without a link part.
func (r Result) String() string {
	if r.Disconnected {
		return fmt.Sprintf("disconnected (worst F=%v, %d sets)", r.WorstFaults, r.Evaluated)
	}
	return fmt.Sprintf("max diameter %d (worst F=%v, %d sets)", r.MaxDiameter, r.WorstFaults, r.Evaluated)
}

// MixedResult mirrors eval.MixedResult.
type MixedResult struct {
	MaxDiameter     int
	Disconnected    bool
	WorstNodeFaults *graph.Bitset
	WorstEdgeFaults []routing.EdgeFault
	Evaluated       int
}

// String renders a result like eval.MixedResult.String.
func (r MixedResult) String() string {
	if r.Disconnected {
		return fmt.Sprintf("disconnected (worst F=%v E=%v, %d sets)", r.WorstNodeFaults, r.WorstEdgeFaults, r.Evaluated)
	}
	return fmt.Sprintf("max diameter %d (worst F=%v E=%v, %d sets)", r.MaxDiameter, r.WorstNodeFaults, r.WorstEdgeFaults, r.Evaluated)
}

// BeyondResult mirrors eval.BeyondResult.
type BeyondResult struct {
	Evaluated              int
	GraphConnected         int
	Shattered              int
	WorstComponentDiameter int
	WorstFaults            *graph.Bitset
	WorstEdgeFaults        []routing.EdgeFault
}

// sortedEdgeFaults returns a normalized, lexicographically sorted copy.
func sortedEdgeFaults(edges []routing.EdgeFault) []routing.EdgeFault {
	out := make([]routing.EdgeFault, len(edges))
	for i, e := range edges {
		out[i] = e.Normalize()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// drawFaults draws one uniform fault set of size exactly f (f <= n).
func drawFaults(rng *rand.Rand, n, f int) *graph.Bitset {
	faults := graph.NewBitset(n)
	for faults.Count() < f {
		faults.Add(rng.Intn(n))
	}
	return faults
}
