// Package eval measures the fault tolerance of routings: it searches
// over fault sets F (exhaustively, by random sampling, or by greedy
// adversarial growth), computes the diameter of each surviving route
// graph R(G,ρ)/F, and checks the (d, f)-tolerance claims of the paper's
// theorems. A second adversary walks static-failover tables packet by
// packet (failover.go).
//
// # Evaluators
//
// Consecutive fault sets of every search differ by one fault, so the
// package evaluates them incrementally. Engine compiles a routing once
// into flat arrays — one inverted index from each item (node or link,
// see the fault model below) to the routes holding it, and per-route
// fault counters — so toggling one fault updates only the arcs whose
// routes hold it; the live surviving graph is kept as packed adjacency
// bitrows and distances are computed by one word-parallel BFS loop.
// Every search scores a fault set with one diameter kernel, branch and
// bound: it decides whether the set's diameter beats the search's
// incumbent, from a few pivot BFS, and is exact whenever it does.
// WalkEngine does the same for failover-table walks, re-walking only
// the pairs whose cached walk used or was blocked by the toggled item;
// it walks the tables' own flat layout and compiles only what depends
// on the graph, each hop's link item and each node's endpoint pairs.
// Both engines keep one fault set over items and change it in one
// toggle; their node and link methods are range checks around it.
//
// # Fault model
//
// The paper reduces link faults to node faults by declaring one
// endpoint of a failed link faulty (Section 1). The package also
// searches the literal mixed model: a route dies iff it contains a
// faulty node or traverses a faulty link. Every search enumerates items
// of the graph's one numbering, graph.Items — node v is item v, link i
// of g.Edges() is item n+i — so node-only, link-only and mixed searches
// differ only in their item lists, the numbering's universes. The
// engines resolve links and BeyondTolerance splits G−F into components
// through the same numbering; split, set and move (items.go) convert
// between its items and the node lists and routing.EdgeFault links of
// the public API.
//
// # Reports
//
// Each objective has one report. Every diameter search, over nodes,
// links or both, returns a MixedResult; every walk search, over links
// or links and nodes, returns a MixedCutResult. A search that cannot
// fault an item kind reports that witness part empty: a node-only
// diameter search leaves WorstEdgeFaults nil, a link-only walk search
// reports WorstNodes as []int{}. Both names keep "Mixed" because
// bench/ftbench, the end-to-end benchmark, reads them by name.
//
// # The search driver
//
// Every entry point (MaxDiameter, Profile, CheckTolerance,
// ConcentratorAdversary, BeyondTolerance, their Mixed twins,
// GreedyEdgeAdversary, WorstLinkCuts, WorstMixedFaults and the Parallel
// variants) runs on one search driver (search.go) over one of the two
// engines. Parallel variants return exactly the sequential result,
// witness included. They parallelize across fault sets only: the
// driver's work-stealing executor gives each worker its own engine
// clone, and the diameter kernel scores one set on one goroutine. The
// rebuild-per-set reference implementations live in
// internal/eval/oracle, which only tests and benchmarks import.
package eval

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Mode selects how fault sets are searched.
type Mode int

const (
	// Exhaustive enumerates every fault set of size 0..f. Exact but
	// exponential; use for small graphs.
	Exhaustive Mode = iota
	// Sampled draws uniform random fault sets of size f (plus the empty
	// set), and is complemented by a greedy adversarial search.
	Sampled
)

// Config controls a tolerance measurement.
type Config struct {
	Mode    Mode
	Samples int   // number of random fault sets in Sampled mode (default 200)
	Seed    int64 // randomness for Sampled mode
	// Greedy enables, in Sampled mode, an additional greedy adversarial
	// search that grows a fault set one item at a time, always picking
	// the item that maximizes the surviving diameter.
	Greedy bool
	// Deprecated: Bounded is ignored. Every diameter search scores its
	// fault sets with the branch-and-bound kernel, threading the
	// best-so-far diameter through the search (see docs/perf.md).
	Bounded bool
	// SkippedWeight is the λ of the mixed packet-level adversary
	// (WorstMixedFaults): fault sets are ranked by the score
	// disrupted + λ·skipped instead of disrupted pairs alone, letting
	// the adversary trade stranded packets against dead endpoints. The
	// default 0 preserves the pure-disruption objective bit for bit. It
	// must be finite: under NaN or ±Inf no fault set ranks above another,
	// so the search would report the empty set.
	SkippedWeight float64
}

// samples is the number of random sets Sampled mode draws.
func (c Config) samples() int {
	if c.Samples <= 0 {
		return 200
	}
	return c.Samples
}

// MixedResult is the report of every diameter search (MaxDiameter,
// MaxDiameterMixed, ConcentratorAdversary, ConcentratorEdgeAdversary,
// GreedyEdgeAdversary and the Parallel variants): the worst case found
// and a fault set achieving it, split into its nodes and its links. A
// search over nodes only leaves WorstEdgeFaults nil. The name keeps
// "Mixed" because bench/ftbench reads the type by name.
type MixedResult struct {
	MaxDiameter     int                 // largest surviving diameter observed
	Disconnected    bool                // some fault set disconnected the surviving graph
	WorstNodeFaults *graph.Bitset       // node part of a worst-case witness
	WorstEdgeFaults []routing.EdgeFault // edge part, normalized and sorted
	Evaluated       int                 // number of fault sets evaluated
}

// String renders a result compactly.
func (r MixedResult) String() string {
	if r.Disconnected {
		return fmt.Sprintf("disconnected (worst F=%v E=%v, %d sets)", r.WorstNodeFaults, r.WorstEdgeFaults, r.Evaluated)
	}
	return fmt.Sprintf("max diameter %d (worst F=%v E=%v, %d sets)", r.MaxDiameter, r.WorstNodeFaults, r.WorstEdgeFaults, r.Evaluated)
}

// result converts a finished diameter search into its result: a final
// score is a disconnection, whose MaxDiameter is the incumbent it froze.
func (e *Engine) result(b best[int]) MixedResult {
	nodes, cuts := split(e.items, b.items)
	r := MixedResult{MaxDiameter: b.score, WorstNodeFaults: graph.BitsetOf(e.n, nodes...), Evaluated: b.evaluated}
	if e.final(b.score) {
		r.Disconnected, r.MaxDiameter = true, b.pre
	}
	if len(cuts) > 0 { // a witness without links keeps a nil link part
		r.WorstEdgeFaults = cuts
	}
	return r
}

// diameterSearch compiles src and builds a search over its nodes, plus
// its links when links is set. It returns the budget clamped to
// 0..len(items).
func diameterSearch(src RouteSource, f, workers int, links bool) (*search[*Engine, int], int) {
	e := NewEngine(src)
	s := newSearch(e, e.items.Universe(true, links), workers)
	return s, min(max(f, 0), len(s.items))
}

// maxDiameter runs the search behind MaxDiameter and MaxDiameterMixed.
func maxDiameter(src RouteSource, f int, cfg Config, workers int, links bool) MixedResult {
	s, f := diameterSearch(src, f, workers, links)
	var b best[int]
	if cfg.Mode == Exhaustive {
		s.hi = f
		s.exhaustive(&b)
	} else {
		s.diameterSampled(&b, f, cfg)
	}
	return s.root.result(b)
}

// diameterSampled folds the empty set, cfg.Samples random sets of size
// f, and with cfg.Greedy the greedy adversary's grown sets.
func (s *search[E, S]) diameterSampled(b *best[S], f int, cfg Config) {
	s.visitSet(&s.main, b)
	s.sampled(b, f, cfg.samples(), cfg.Seed)
	if cfg.Greedy {
		s.greedy(b, f)
	}
}

// MaxDiameter searches fault sets of size at most f (a negative budget
// means the empty set only) and returns the worst surviving diameter
// found. Disconnection (some ordered pair with no surviving path)
// dominates any finite diameter.
func MaxDiameter(s RouteSource, f int, cfg Config) MixedResult {
	return maxDiameter(s, f, cfg, 1, false)
}

// MaxDiameterParallel is MaxDiameter with the search fanned out over
// worker goroutines (workers <= 0 means GOMAXPROCS) on per-worker
// Engine clones, with work stealing over enumeration prefixes,
// pre-drawn samples and greedy candidates.
// Sub-results merge in enumeration order, so the result — witness
// included — is identical to MaxDiameter's.
func MaxDiameterParallel(s RouteSource, f int, cfg Config, workers int) MixedResult {
	return maxDiameter(s, f, cfg, workers, false)
}

// MaxDiameterMixed searches mixed fault sets — any combination of node
// and edge faults of total size at most f — for the worst surviving
// diameter of the literal mixed model. Exhaustive mode enumerates every
// subset of the n+m item universe of size 0..f; Sampled mode draws
// uniform random mixed sets of size f (plus the empty set) and, with
// cfg.Greedy, grows an adversarial mixed set one item at a time.
func MaxDiameterMixed(s RouteSource, f int, cfg Config) MixedResult {
	return maxDiameter(s, f, cfg, 1, true)
}

// MaxDiameterMixedParallel is MaxDiameterMixed fanned out over worker
// goroutines exactly as MaxDiameterParallel is.
func MaxDiameterMixedParallel(s RouteSource, f int, cfg Config, workers int) MixedResult {
	return maxDiameter(s, f, cfg, workers, true)
}

// CheckTolerance verifies a (d, f)-tolerance claim: it returns nil when
// every evaluated fault set of size at most f (a negative f means the
// empty set only) leaves the surviving graph with diameter at most d.
// In Exhaustive mode this is a proof over the instance; in Sampled mode
// it is a statistical check.
//
// The exhaustive check decides each fault set against d with the
// branch-and-bound kernel and stops at the first violation, so the
// reported counterexample is the first in enumeration order; Sampled
// reports the worst set found.
func CheckTolerance(s RouteSource, d, f int, cfg Config) error {
	return checkTolerance(s, d, f, cfg, false)
}

// CheckToleranceMixed is CheckTolerance over mixed fault sets of total
// size at most f — failed nodes plus cut links combined.
func CheckToleranceMixed(s RouteSource, d, f int, cfg Config) error {
	return checkTolerance(s, d, f, cfg, true)
}

func checkTolerance(src RouteSource, d, f int, cfg Config, links bool) error {
	f = max(f, 0)
	if cfg.Mode != Exhaustive {
		r := maxDiameter(src, f, cfg, 1, links)
		if r.Disconnected || r.MaxDiameter > d {
			return toleranceError(links, r.WorstNodeFaults, r.WorstEdgeFaults, r.Disconnected, r.MaxDiameter, d, f)
		}
		return nil
	}
	s, hi := diameterSearch(src, f, 1, links)
	e := s.root
	var err error
	s.visit = func(*worker[*Engine], *best[int]) bool {
		if sc := e.score(max(d, 0), 0); sc > max(d, 0) {
			err = toleranceError(links, e.Faults(), e.EdgeFaults(), e.final(sc), sc, d, f)
			return false
		}
		return true
	}
	s.hi = hi
	s.walk(&best[int]{})
	return err
}

// toleranceError describes a violated (d, f) claim.
func toleranceError(links bool, nf *graph.Bitset, ef []routing.EdgeFault, disc bool, diam, d, f int) error {
	set := fmt.Sprintf("fault set %v", nf)
	if links {
		set = fmt.Sprintf("mixed fault set nodes %v links %v", nf, ef)
	}
	if disc {
		return fmt.Errorf("eval: %s disconnects the surviving graph (claimed (%d,%d)-tolerant)", set, d, f)
	}
	return fmt.Errorf("eval: %s gives diameter %d (claimed (%d,%d)-tolerant)", set, diam, d, f)
}

// Profile reports, for each fault count 0..f, the worst surviving
// diameter found (-1 encodes disconnection). A negative f gives an
// empty profile, and f is clamped to the n nodes, so the profile has at
// most n+1 rows. It reads cfg as MaxDiameter does but evaluates each
// size separately, which is the shape of the per-fault-count table
// ftroute tolerate prints. Each size runs on GOMAXPROCS workers,
// with the result of the sequential search.
func Profile(s RouteSource, f int, cfg Config) []int { return profile(s, f, cfg, 0, false) }

// ProfileMixed reports, for each total mixed fault-set size 0..f — the
// combined count of failed nodes and cut links — the worst surviving
// diameter found (-1 encodes disconnection). It is the mixed-universe
// counterpart of Profile: f is clamped to the n+m items, and each size
// runs on GOMAXPROCS workers with the sequential result.
func ProfileMixed(s RouteSource, f int, cfg Config) []int { return profile(s, f, cfg, 0, true) }

// profile runs each size k of 0..f as one search on workers workers
// (<= 0 means GOMAXPROCS). The routing is compiled once, and the
// search, with its worker clones, is reused for every size. Each size
// starts from a fresh incumbent: a score of one size does not bound the
// sets of the next, so a stale one would let units prune sets the size
// needs.
func profile(src RouteSource, f int, cfg Config, workers int, links bool) []int {
	if f < 0 {
		return []int{}
	}
	s, f := diameterSearch(src, f, workers, links)
	out := make([]int, f+1)
	for k := range out {
		var b best[int]
		s.shared = new(incumbent[int])
		if cfg.Mode == Exhaustive {
			s.lo, s.hi = k, k
			s.exhaustive(&b)
		} else {
			s.diameterSampled(&b, k, cfg)
		}
		out[k] = b.score
		if s.root.final(b.score) {
			out[k] = -1
		}
	}
	return out
}

// ConcentratorAdversary evaluates fault sets drawn from a designated
// node set (typically a routing's concentrator M or its neighborhoods):
// the structurally critical nodes. It enumerates every subset of size
// at most f of the targets — deduplicated in first-occurrence order,
// ids outside 0..n−1 dropped — plus the empty set, in preorder over the
// target order. This is the adversary the paper's proofs defend
// against: faults concentrated on the concentrator.
func ConcentratorAdversary(s RouteSource, f int, targets []int) MixedResult {
	n := s.Graph().N()
	seen := graph.NewBitset(n)
	var items []int
	for _, v := range targets {
		if v >= 0 && v < n && !seen.Has(v) {
			seen.Add(v)
			items = append(items, v)
		}
	}
	return concentrator(NewEngine(s), f, items)
}

// ConcentratorEdgeAdversary enumerates every subset of size at most f
// of the target links — typically the edges incident to a routing's
// concentrator, the structurally critical wires — and folds in the
// empty set. Targets are normalized and exact duplicates dropped;
// self-loops and non-edges are harmless no-op items.
func ConcentratorEdgeAdversary(s RouteSource, f int, targets []routing.EdgeFault) MixedResult {
	e := NewEngine(s)
	seen := make(map[routing.EdgeFault]bool, len(targets))
	var items []int
	noop := e.faults.Cap() // ids past the universe toggle nothing
	for _, t := range targets {
		if t = t.Normalize(); !seen[t] {
			seen[t] = true
			it, ok := e.items.Link(t.U, t.V)
			if !ok {
				it, noop = noop, noop+1
			}
			items = append(items, it)
		}
	}
	return concentrator(e, f, items)
}

func concentrator(e *Engine, f int, items []int) MixedResult {
	s := newSearch(e, items, 1)
	s.hi = max(f, 0)
	var b best[int]
	s.walk(&b)
	return e.result(b)
}

// GreedyEdgeAdversary grows a pure edge-fault set of size at most f,
// each round failing the link that maximizes the surviving diameter
// (preferring disconnection). It is the link-failure counterpart of the
// greedy node adversary: the static-failover worst case where an
// adversary cuts wires but never kills switches.
func GreedyEdgeAdversary(s RouteSource, f int) MixedResult {
	e := NewEngine(s)
	sr := newSearch(e, e.items.Universe(false, true), 1)
	var b best[int]
	sr.visitSet(&sr.main, &b)
	sr.greedy(&b, f)
	return e.result(b)
}
