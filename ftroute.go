// Package ftroute is a library of fault-tolerant routings for general
// networks, reproducing Peleg & Simons, "On Fault Tolerant Routings in
// General Networks" (PODC 1986; Information and Computation 74, 33–49,
// 1987).
//
// A routing fixes one simple path per ordered node pair. When nodes
// fail, the surviving route graph R(G,ρ)/F keeps an arc x→y only if the
// fixed route from x to y avoids every fault; its diameter bounds the
// number of route traversals (and hence endpoint-processing steps, or
// broadcast rounds for route-table reconstruction) any message needs.
// The constructions here guarantee constant surviving diameter for any
// fault set smaller than the graph's connectivity:
//
//	Construction              Needs                                Guarantee
//	Kernel (Dolev et al.)     any (t+1)-connected graph            (max{2t,4}, t) and (4, ⌊t/2⌋)
//	Circular                  neighborhood set of 2t+1             (6, t)
//	Tri-circular              neighborhood set of 6t+9             (4, t)
//	Bipolar (unidirectional)  two-trees property                   (4, t)
//	Bipolar (bidirectional)   two-trees property                   (5, t)
//	Full multirouting         t+1 routes per pair                  (1, t)
//	Kernel multirouting       t+1 routes inside concentrator       (3, t)
//	Clique-augmented kernel   ≤ t(t+1)/2 added links               (3, t)
//
// # Quick start
//
//	g, _ := ftroute.CCC(4)                       // 3-connected network, t = 2
//	plan, _ := ftroute.Auto(g, ftroute.Options{})
//	faults := ftroute.FaultsOf(g.N(), 3, 17)     // two faulty nodes
//	surviving := plan.Routing.SurvivingGraph(faults)
//	diam, ok := surviving.Diameter()             // ≤ plan.Bound whenever |F| ≤ plan.T
//
// The subpackages are reachable only through this facade; everything a
// downstream user needs is re-exported here.
package ftroute

import (
	"ftroute/internal/connectivity"
	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
	"ftroute/internal/sym"
)

// Core graph types.
type (
	// Graph is a simple undirected graph on nodes 0..N-1.
	Graph = graph.Graph
	// Digraph is the directed surviving-route-graph representation.
	Digraph = graph.Digraph
	// Bitset is a node set, used for fault sets.
	Bitset = graph.Bitset
	// Path is a route: a node sequence from source to destination.
	Path = routing.Path
	// Routing assigns at most one simple path to each ordered node pair.
	Routing = routing.Routing
	// MultiRouting assigns up to k parallel paths per ordered pair (§6).
	MultiRouting = routing.MultiRouting
	// Options tunes the constructions (tolerance, concentrators, ...).
	Options = core.Options
	// Plan is a routing built by name with its proven (Bound, T): the
	// result of Build and Auto.
	Plan = core.Plan
	// Construction names one of the five single-routing constructions.
	Construction = core.Construction
	// TwoTrees witnesses the two-trees property (Section 5).
	TwoTrees = core.TwoTrees
)

// Construction metadata types.
type (
	// KernelInfo describes a kernel routing (Section 3).
	KernelInfo = core.KernelInfo
	// CircularInfo describes a circular routing (Section 4, Figure 1).
	CircularInfo = core.CircularInfo
	// TriCircularInfo describes a tri-circular routing (Section 4, Figure 2).
	TriCircularInfo = core.TriCircularInfo
	// BipolarInfo describes a bipolar routing (Section 5, Figure 3).
	BipolarInfo = core.BipolarInfo
	// MultiInfo describes a Section 6 multirouting.
	MultiInfo = core.MultiInfo
	// AugmentInfo describes a clique-augmented kernel routing (Section 6).
	AugmentInfo = core.AugmentInfo
)

// The constructions Build builds by name (see the package doc table).
const (
	ConstructionKernel      = core.ConstructionKernel
	ConstructionCircular    = core.ConstructionCircular
	ConstructionTriCircular = core.ConstructionTriCircular
	ConstructionBipolarUni  = core.ConstructionBipolarUni
	ConstructionBipolarBi   = core.ConstructionBipolarBi
)

// NewGraph returns an empty undirected graph with n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewFaults returns an empty fault set over n nodes.
func NewFaults(n int) *Bitset { return graph.NewBitset(n) }

// FaultsOf returns a fault set over n nodes containing the given nodes.
func FaultsOf(n int, faulty ...int) *Bitset { return graph.BitsetOf(n, faulty...) }

// Unreachable is the distance value for unreachable nodes.
const Unreachable = graph.Unreachable

// Routing constructions (see package doc for the guarantee table).
var (
	// Kernel builds the (max{2t,4},t)- and (4,⌊t/2⌋)-tolerant kernel routing.
	Kernel = core.Kernel
	// Circular builds the (6,t)-tolerant circular routing (Figure 1).
	Circular = core.Circular
	// TriCircular builds the (4,t)-tolerant tri-circular routing (Figure 2).
	TriCircular = core.TriCircular
	// BipolarUnidirectional builds the (4,t)-tolerant unidirectional
	// bipolar routing (Figure 3).
	BipolarUnidirectional = core.BipolarUnidirectional
	// BipolarBidirectional builds the (5,t)-tolerant bidirectional
	// bipolar routing.
	BipolarBidirectional = core.BipolarBidirectional
	// FullMultirouting builds the (1,t)-tolerant t+1-routes-per-pair
	// multirouting (Section 6).
	FullMultirouting = core.FullMultirouting
	// KernelMultirouting builds the (3,t)-tolerant kernel+concentrator
	// multirouting (Section 6).
	KernelMultirouting = core.KernelMultirouting
	// TwoRouteMultirouting builds the two-routes-per-pair bipolar-style
	// multirouting (Section 6).
	TwoRouteMultirouting = core.TwoRouteMultirouting
	// CliqueAugmentedKernel returns a modified network plus a
	// (3,t)-tolerant routing on it (Section 6).
	CliqueAugmentedKernel = core.CliqueAugmentedKernel
	// Build builds one of the five single-routing constructions by
	// name and reports the (Bound, T) it proves.
	Build = core.Build
	// Auto picks the strongest applicable construction.
	Auto = core.Auto
	// ShortestPathRouting builds the fixed shortest-path baseline.
	ShortestPathRouting = routing.ShortestPath
	// NewMultiRouting creates an empty multirouting with a per-pair cap.
	NewMultiRouting = routing.NewMulti
	// NewRouting creates an empty unidirectional routing.
	NewRouting = routing.New
	// NewBidirectionalRouting creates an empty bidirectional routing.
	NewBidirectionalRouting = routing.NewBidirectional
)

// Structural analysis.
var (
	// VertexConnectivity returns κ(G) and a minimum separating set.
	VertexConnectivity = connectivity.VertexConnectivity
	// IsKConnected tests k-connectivity without computing κ exactly.
	IsKConnected = connectivity.IsKConnected
	// DisjointPaths returns k internally node-disjoint s–t paths.
	DisjointPaths = connectivity.DisjointPaths
	// DisjointPathsToSet returns the Lemma 2 tree-routing paths.
	DisjointPathsToSet = connectivity.DisjointPathsToSet
	// NeighborhoodSet runs the greedy algorithm of Lemma 15.
	NeighborhoodSet = core.NeighborhoodSet
	// CheckNeighborhoodSet verifies the neighborhood-set property.
	CheckNeighborhoodSet = core.CheckNeighborhoodSet
	// HammingNeighborhoodSet returns a perfect-code concentrator for Q_d.
	HammingNeighborhoodSet = core.HammingNeighborhoodSet
	// FindTwoTrees searches for a two-trees witness (Section 5).
	FindTwoTrees = core.FindTwoTrees
	// HasTwoTrees reports whether the two-trees property holds.
	HasTwoTrees = core.HasTwoTrees
)

// Fault-tolerance evaluation.
type (
	// EvalConfig controls fault-set search.
	EvalConfig = eval.Config
	// EvalEngine is the incremental surviving-graph evaluation engine:
	// it compiles a routing once and then maintains R(G,ρ)/F under
	// single-fault additions/removals with word-parallel BFS diameters.
	// All evaluation entry points use it automatically for Routing and
	// MultiRouting values; it is exported for custom search loops.
	EvalEngine = eval.Engine
	// RouteSource is a routing whose fixed routes can be enumerated,
	// the input of every evaluation entry point (Routing and
	// MultiRouting both qualify).
	RouteSource = eval.RouteSource
	// MixedResult is the report of every diameter search: the worst
	// surviving diameter found and a fault set achieving it, split into
	// nodes (WorstNodeFaults) and links (WorstEdgeFaults, nil for a
	// node-only search).
	MixedResult = eval.MixedResult
)

// Evaluation modes.
const (
	// Exhaustive enumerates every fault set up to the budget.
	Exhaustive = eval.Exhaustive
	// Sampled draws random fault sets (optionally plus a greedy
	// adversarial search).
	Sampled = eval.Sampled
)

var (
	// MaxDiameterUnderFaults searches fault sets of size ≤ f for the
	// worst surviving diameter; its MixedResult has no link part.
	MaxDiameterUnderFaults = eval.MaxDiameter
	// MaxDiameterUnderFaultsParallel fans the search over worker
	// goroutines (per-worker engine clones with work stealing); results
	// are bit-for-bit identical to the sequential search for Routing
	// and MultiRouting values.
	MaxDiameterUnderFaultsParallel = eval.MaxDiameterParallel
	// ConcentratorAdversary enumerates fault sets drawn from a target
	// node set (typically a concentrator).
	ConcentratorAdversary = eval.ConcentratorAdversary
	// CheckTolerance verifies a (d, f)-tolerance claim.
	CheckTolerance = eval.CheckTolerance
	// DiameterProfile reports worst diameters per fault count 0..f, f
	// clamped to the node count. Each count runs on GOMAXPROCS workers
	// and returns the sequential search's result.
	DiameterProfile = eval.Profile
	// CheckToleranceMixed verifies a (d, f)-tolerance claim over mixed
	// node∪edge fault sets of total size ≤ f.
	CheckToleranceMixed = eval.CheckToleranceMixed
	// MixedDiameterProfile reports worst surviving diameters per exact
	// mixed fault-set size 0..f (−1 marks disconnection), f clamped to
	// the node and link count, on GOMAXPROCS workers with the sequential
	// result.
	MixedDiameterProfile = eval.ProfileMixed
	// NewEvalEngine compiles a routing into an incremental engine.
	NewEvalEngine = eval.NewEngine
	// MaxDiameterUnderMixedFaults searches mixed node∪edge fault sets of
	// total size ≤ f under the literal edge-fault semantics.
	MaxDiameterUnderMixedFaults = eval.MaxDiameterMixed
	// MaxDiameterUnderMixedFaultsParallel fans the mixed search over
	// worker goroutines on per-worker engine clones.
	MaxDiameterUnderMixedFaultsParallel = eval.MaxDiameterMixedParallel
	// GreedyEdgeAdversary grows a pure link-failure fault set one edge
	// at a time, always cutting the most damaging wire.
	GreedyEdgeAdversary = eval.GreedyEdgeAdversary
	// ConcentratorEdgeAdversary enumerates fault sets drawn from a
	// target link set (typically the concentrator's incident edges).
	ConcentratorEdgeAdversary = eval.ConcentratorEdgeAdversary
)

// Edge-fault handling. A routing's per-node next-hop tables, the form
// real switches hold, are the rank-1 FailoverTables of
// FailoverFromRouting (below).
type (
	// EdgeFault identifies a failed undirected link.
	EdgeFault = routing.EdgeFault
)

var (
	// MapEdgeFaultsToNodes applies the paper's edge-fault reduction.
	MapEdgeFaultsToNodes = routing.MapEdgeFaultsToNodes
)

// Static-failover forwarding: ranked backup next-hops with local
// failover (Chiesa et al.'s model), plus the packet-level link-cut
// adversary that searches for the worst cuts against the tables.
type (
	// FailoverTables hold ranked per-(node, src, dst) next hops: the
	// primary route's hop first, backups after it.
	FailoverTables = routing.FailoverTables
	// FaultSet is a static set of faulty nodes and links, the
	// environment a failover walk runs in.
	FaultSet = routing.FaultSet
	// WalkResult reports one static-failover walk (outcome, path, hops,
	// backup entries used).
	WalkResult = routing.WalkResult
	// WalkOutcome classifies a walk: Delivered, Blackhole or
	// ForwardingLoop.
	WalkOutcome = routing.Outcome
	// LinkCutStats counts walk outcomes over all table pairs under one
	// cut set.
	LinkCutStats = eval.CutStats
	// WalkEngine is the incremental failover-walk engine: it walks the
	// tables' flat layout, caches every pair's walk, and re-walks only
	// the pairs whose cached walk touched a toggled item on
	// AddLinkCut/RemoveLinkCut and AddNodeFault/RemoveNodeFault. All
	// packet-level adversary entry points use it automatically; it is
	// exported for custom search loops.
	WalkEngine = eval.WalkEngine
	// MixedCutResult is the report of every packet-level adversary
	// search: the worst fault set found, split into nodes (WorstNodes,
	// []int{} for a link-only search) and links (WorstCuts), and the walk
	// outcomes under it.
	MixedCutResult = eval.MixedCutResult
)

// Static-failover walk outcomes.
const (
	// Delivered: the packet reached its destination.
	Delivered = routing.Delivered
	// Blackhole: some node on the walk had no live next hop.
	Blackhole = routing.Blackhole
	// ForwardingLoop: the walk revisited a node, hence cycles forever.
	ForwardingLoop = routing.Loop
	// SkippedPair: the pair was not walked — its source or destination
	// node is failed, so there is no packet to forward. Only the mixed
	// adversary reports it; it never counts as disrupted.
	SkippedPair = routing.Skipped
)

var (
	// CompileFailover builds ranked failover tables from a multirouting.
	CompileFailover = routing.CompileFailover
	// FailoverFromRouting builds rank-1 failover tables from a single
	// routing (walks succeed exactly when the pair's route survives).
	FailoverFromRouting = routing.FailoverFromRouting
	// Reinforce adds up to k link-disjoint backup routes per pair
	// (Lenzen–Medina-style), ready for CompileFailover.
	Reinforce = routing.Reinforce
	// NewFaultSet returns an empty node+link fault set over n nodes.
	NewFaultSet = routing.NewFaultSet
	// FaultSetOf returns a fault set with the given faulty nodes and links.
	FaultSetOf = routing.FaultSetOf
	// WorstLinkCuts searches for the cut set disrupting the most pairs
	// of a failover table set (exhaustive, or sampled+greedy+concentrator),
	// incrementally through the WalkEngine; its MixedCutResult has no
	// node part.
	WorstLinkCuts = eval.WorstLinkCuts
	// WorstLinkCutsParallel fans the link-cut search over worker
	// goroutines on per-worker WalkEngine clones; results are
	// bit-for-bit identical to the sequential search.
	WorstLinkCutsParallel = eval.WorstLinkCutsParallel
	// NewWalkEngine compiles failover tables into an incremental
	// walk engine.
	NewWalkEngine = eval.NewWalkEngine
	// WorstMixedFaults searches mixed fault sets — failed nodes and cut
	// links, the paper's literal fault model — for the set disrupting
	// the most pairs, incrementally through the WalkEngine.
	WorstMixedFaults = eval.WorstMixedFaults
	// WorstMixedFaultsParallel fans the mixed search over worker
	// goroutines on per-worker WalkEngine clones; results are
	// bit-for-bit identical to the sequential search.
	WorstMixedFaultsParallel = eval.WorstMixedFaultsParallel
	// EvaluateMixedFaults walks every table pair under one mixed fault
	// set (pairs with a failed endpoint count as skipped); with no
	// failed nodes it scores a pure cut set.
	EvaluateMixedFaults = eval.EvaluateMixedFaults
)

// Graph symmetry: automorphism groups, the fault-item numbering their
// node permutations lift onto, and orbits on the node, link and mixed
// fault universes (ftroute orbits, docs/symmetry.md).
type (
	// SymmetryGroup is an automorphism group as a generating set.
	SymmetryGroup = sym.Group
	// Items is a graph's fault-item numbering (node v is item v, link i
	// of g.Edges() is item n+i): it lists the node, link and mixed
	// universes and lifts node automorphisms onto them.
	Items = graph.Items
)

var (
	// Automorphisms computes Aut(G) as a generating set via refinement
	// and individualization.
	Automorphisms = sym.Automorphisms
	// GroupElements expands a generating set into the full element list
	// (nil when the order exceeds the cap).
	GroupElements = sym.Elements
	// NodeOrbits labels each point with its orbit under the given
	// permutations: node permutations, or their lifts (Items.Lift) for
	// link and mixed orbits. Generators suffice.
	NodeOrbits = sym.Orbits
	// OrbitCount counts distinct labels in an orbit labeling.
	OrbitCount = sym.OrbitCount
	// NewItems numbers the fault items of g.
	NewItems = graph.NewItems
)

// GroupElementCap is the largest automorphism group order that
// ftroute orbits lists with GroupElements to print the group's order.
const GroupElementCap = sym.ElementCap

// Beyond-tolerance analysis (the paper's Open Problem 3).
type (
	// BeyondResult reports componentwise behavior when |F| can exceed t.
	BeyondResult = eval.BeyondResult
)

// BeyondTolerance measures, for every fault set of size exactly f,
// whether the surviving route graph stays connected (with small
// diameter) inside each connected component of G−F — the "well behaved"
// criterion of the paper's Open Problem 3.
var BeyondTolerance = eval.BeyondTolerance

// BeyondToleranceMixed is BeyondTolerance over mixed node∪edge fault
// sets under the literal link-failure semantics: faulty links cut both
// their routes and the graph edges defining the components of G−F.
var BeyondToleranceMixed = eval.BeyondToleranceMixed

// DecodeRoutingTable reconstructs a routing from its JSON encoding
// (Routing.WriteTo / MarshalJSON), re-validating every path against g.
var DecodeRoutingTable = routing.DecodeRouting
