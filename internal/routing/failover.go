package routing

import (
	"cmp"
	"fmt"
	"slices"

	"ftroute/internal/graph"
)

// This file implements static-failover forwarding: the table-level
// resilience model of Chiesa et al. ("Exploring the Limits of Static
// Failover Routing") layered over the paper's fixed routings.
// FailoverTables hold, per (at, src, dst) decision, a *ranked* list of
// next hops: the primary route's hop first, then backups contributed by
// the pair's parallel routes. A routing's plain per-node next-hop
// tables are the rank-1 case (FailoverFromRouting). A switch that
// sees its preferred outgoing link (or neighbor) dead falls through to
// the next live entry — a purely local decision with no packet header
// rewriting and no global recomputation, which is exactly what deployed
// fast-reroute mechanisms do.
//
// Backups come from two sources:
//
//   - CompileFailover(m): each of a MultiRouting's parallel routes for a
//     pair contributes its next hop at every node it traverses, ranked in
//     route order (Section 6 multiroutings become failover tables
//     directly);
//   - Reinforce(r, k): Lenzen–Medina-style reinforcement ("Robust
//     Routing Made Easy") of a single routing — every pair keeps its
//     primary route and gains up to k backup routes, each a shortest
//     path avoiding the links used by the routes already chosen for the
//     pair, so successive backups survive the cuts that kill their
//     predecessors.
//
// Both compile into one flat Layout: the routed pairs in sorted order,
// each owning a run of entries sorted by the node that holds them, each
// entry its ranked next hops. WalkUnderFaults and package eval's
// WalkEngine both read these arrays; neither keeps a copy.
//
// Because the tables are static and forwarding is memoryless, a walk
// under a fixed fault set is deterministic, and exactly three outcomes
// are possible: the packet is Delivered, it hits a Blackhole (some node
// has no live entry for the pair), or it enters a forwarding Loop
// (revisits a node, hence cycles forever). WalkUnderFaults detects and
// classifies all three in at most AliveNodes hops. Chiesa et al. show
// static failover cannot always avoid the latter two once cuts exceed
// the routing's tolerance; package eval's link-cut adversary searches
// for the cut sets that trigger them.

// Outcome classifies one static-failover walk.
type Outcome int

const (
	// Delivered: the packet reached its destination.
	Delivered Outcome = iota
	// Blackhole: some node on the walk had no live next hop for the
	// pair (every entry pointed at a faulty link or node, or the node
	// held no entry at all).
	Blackhole
	// Loop: the walk revisited a node. Forwarding is deterministic
	// under a static fault set, so a revisit proves the packet would
	// cycle forever.
	Loop
	// Skipped: the pair was not walked at all because its source or
	// destination node is failed — there is no packet to forward.
	// WalkUnderFaults never returns it (a faulty endpoint blackholes
	// there); the mixed-fault adversary of package eval classifies such
	// pairs separately so killing a pair's own endpoints earns the
	// adversary no disruption credit.
	Skipped
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Blackhole:
		return "blackhole"
	case Loop:
		return "loop"
	case Skipped:
		return "skipped"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// FaultSet is a static set of faulty nodes and links, the environment a
// failover walk runs in. The zero value is unusable; create with
// NewFaultSet. Links are stored normalized, so {u,v} and {v,u} denote
// the same fault.
type FaultSet struct {
	nodes *graph.Bitset
	links map[EdgeFault]bool
}

// NewFaultSet returns an empty fault set over n nodes.
func NewFaultSet(n int) *FaultSet {
	return &FaultSet{nodes: graph.NewBitset(n), links: make(map[EdgeFault]bool)}
}

// FaultSetOf returns a fault set with the given faulty nodes and links.
func FaultSetOf(n int, nodes []int, links []EdgeFault) *FaultSet {
	f := NewFaultSet(n)
	for _, v := range nodes {
		f.FailNode(v)
	}
	for _, e := range links {
		f.FailLink(e.U, e.V)
	}
	return f
}

// FailNode marks v faulty. A node outside 0..n-1 is ignored: it lies on
// no route.
func (f *FaultSet) FailNode(v int) {
	if v >= 0 && v < f.nodes.Cap() {
		f.nodes.Add(v)
	}
}

// RepairNode clears v's fault.
func (f *FaultSet) RepairNode(v int) { f.nodes.Remove(v) }

// FailLink marks the undirected link {u, v} faulty.
func (f *FaultSet) FailLink(u, v int) { f.links[EdgeFault{U: u, V: v}.Normalize()] = true }

// RepairLink clears the link fault on {u, v}.
func (f *FaultSet) RepairLink(u, v int) { delete(f.links, EdgeFault{U: u, V: v}.Normalize()) }

// NodeFaulty reports whether v is faulty.
func (f *FaultSet) NodeFaulty(v int) bool { return f.nodes.Has(v) }

// LinkFaulty reports whether the link {u, v} is faulty.
func (f *FaultSet) LinkFaulty(u, v int) bool { return f.links[EdgeFault{U: u, V: v}.Normalize()] }

// NodeFaults returns the faulty nodes as a bitset copy.
func (f *FaultSet) NodeFaults() *graph.Bitset { return f.nodes.Clone() }

// LinkFaults returns the faulty links, normalized and sorted.
func (f *FaultSet) LinkFaults() []EdgeFault {
	out := make([]EdgeFault, 0, len(f.links))
	for e := range f.links {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b EdgeFault) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return out
}

// WalkResult reports one static-failover walk.
type WalkResult struct {
	Outcome Outcome
	// Path is the node sequence traversed: from src up to the
	// destination (Delivered), the node with no live entry (Blackhole),
	// or the first revisited node (Loop).
	Path Path
	// Hops is len(Path)-1: link traversals before the outcome.
	Hops int
	// Failovers counts hops that used a backup (rank > 0) entry.
	Failovers int
}

// FailoverTables hold, per (at-node, src, dst), a ranked list of next
// hops: the primary route's hop first, backups after it in route order.
// They compile once into one flat Layout, indexed by the sorted pairs,
// and are immutable after compilation and safe for concurrent walks.
type FailoverTables struct {
	n       int
	pairs   [][2]int32 // ordered pairs with at least one entry, sorted
	lay     Layout
	perNode []int32 // entries held by each node
	maxRank int
}

// Layout is the flat form of FailoverTables that every reader walks:
// WalkUnderFaults and package eval's WalkEngine. Pair p, an index into Pairs(), owns the entries
// EntOff[p]..EntOff[p+1]-1, sorted by the node that holds them, and
// entry e ranks the next hops Hops[HopOff[e]:HopOff[e+1]], primary
// first. HopEnt[h] is the pair's entry at hop h's target, so a walk
// finds its source's entry once (Entry) and then follows pointers. The
// arrays are shared with the tables; readers must not mutate them.
type Layout struct {
	EntOff []int32 // pair -> range in EntAt and HopOff, len P+1
	EntAt  []int32 // entry -> node holding it, strictly increasing within a pair
	HopOff []int32 // entry -> range in Hops, len E+1
	Hops   []int32 // ranked next hops, primary first
	HopEnt []int32 // hop -> the pair's entry at the hop's target, -1 when it holds none
}

// Entry returns pair p's entry at node at, or -1 when the node holds
// none: a binary search of the pair's run. The walkers call it for the
// source only and follow HopEnt from there. The pointer receiver keeps
// each lookup from copying the slice headers.
func (l *Layout) Entry(p, at int32) int32 {
	lo, hi := l.EntOff[p], l.EntOff[p+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if l.EntAt[mid] < at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < l.EntOff[p+1] && l.EntAt[lo] == at {
		return lo
	}
	return -1
}

// Ranked returns entry e's next hops, primary first, or nil for e < 0.
func (l *Layout) Ranked(e int32) []int32 {
	if e < 0 {
		return nil
	}
	return l.Hops[l.HopOff[e]:l.HopOff[e+1]:l.HopOff[e+1]]
}

// CompileFailover builds failover tables from a multirouting: route i of
// a pair contributes, at every node it traverses, its next hop at rank
// i (duplicate next hops at a node collapse into the earlier rank).
// Section 6 multiroutings and Reinforce outputs compile directly.
func CompileFailover(m *MultiRouting) *FailoverTables {
	return compileFailover(m.Graph().N(), sortedKeys(m.routes), func(k pairKey) []Path { return m.routes[k] })
}

// FailoverFromRouting builds rank-1 failover tables from a single
// routing: the per-node next-hop tables a switch holds, one entry at
// every node a route leaves, naming the route's next hop. A fault-free
// walk follows the stored route, and a walk under faults succeeds
// exactly when the pair's one route survives, which is the bridge
// between table-level and surviving-route-graph semantics (the golden
// TestFailoverWalkMatchesSurvivingRouteGraphCCC4 of package ftroute).
func FailoverFromRouting(r *Routing) *FailoverTables {
	one := make([]Path, 1)
	return compileFailover(r.g.N(), sortedKeys(r.routes), func(k pairKey) []Path {
		one[0] = r.routes[k]
		return one
	})
}

// compileFailover lays out the tables of the sorted pairs keys, where
// routes(k) lists pair k's routes in rank order. Each pair collects its
// (node, next hop) steps in route order and stable-sorts them by node;
// a node's first step starts its entry, and a step whose hop the entry
// already ranks is dropped. Then each hop of each pair gets the pair's
// entry at its target.
func compileFailover(n int, keys []pairKey, routes func(pairKey) []Path) *FailoverTables {
	ft := &FailoverTables{n: n, perNode: make([]int32, n)}
	l := &ft.lay
	l.EntOff = make([]int32, 1, len(keys)+1)
	type step struct{ at, nx int32 }
	var run []step
	for _, k := range keys {
		run = run[:0]
		for _, p := range routes(k) {
			for i := 0; i+1 < len(p); i++ {
				run = append(run, step{int32(p[i]), int32(p[i+1])})
			}
		}
		if len(run) == 0 {
			continue
		}
		for i := 1; i < len(run); i++ { // insertion sort: runs are a few routes long
			for j := i; j > 0 && run[j].at < run[j-1].at; j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
		first := len(l.EntAt)
		for _, s := range run {
			if len(l.EntAt) == first || l.EntAt[len(l.EntAt)-1] != s.at {
				l.EntAt = append(l.EntAt, s.at)
				l.HopOff = append(l.HopOff, int32(len(l.Hops)))
				ft.perNode[s.at]++
			}
			ranked := l.Hops[l.HopOff[len(l.HopOff)-1]:]
			if !slices.Contains(ranked, s.nx) {
				l.Hops = append(l.Hops, s.nx)
				ft.maxRank = max(ft.maxRank, len(ranked)+1)
			}
		}
		ft.pairs = append(ft.pairs, [2]int32{k.u, k.v})
		l.EntOff = append(l.EntOff, int32(len(l.EntAt)))
	}
	l.HopOff = append(l.HopOff, int32(len(l.Hops)))
	l.HopEnt = make([]int32, len(l.Hops))
	entry := make([]int32, n) // node -> its entry in the current pair, -1 = none
	for i := range entry {
		entry[i] = -1
	}
	for p := range ft.pairs {
		ents := l.EntAt[l.EntOff[p]:l.EntOff[p+1]]
		for i, at := range ents {
			entry[at] = l.EntOff[p] + int32(i)
		}
		for h := l.HopOff[l.EntOff[p]]; h < l.HopOff[l.EntOff[p+1]]; h++ {
			l.HopEnt[h] = entry[l.Hops[h]]
		}
		for _, at := range ents {
			entry[at] = -1
		}
	}
	return ft
}

// N returns the node count the tables were compiled for.
func (ft *FailoverTables) N() int { return ft.n }

// MaxRank returns the deepest ranked-entry list (1 = no backups).
func (ft *FailoverTables) MaxRank() int { return ft.maxRank }

// Entries returns the number of (at, src, dst) decisions with at least
// one next hop, the table-space cost of the routing; for rank-1 tables
// it is the routes' total hop count.
func (ft *FailoverTables) Entries() int { return len(ft.lay.EntAt) }

// EntriesAt returns the number of decisions held by one node.
func (ft *FailoverTables) EntriesAt(node int) int {
	if node < 0 || node >= ft.n {
		return 0
	}
	return int(ft.perNode[node])
}

// Pairs returns the ordered pairs with at least one table entry, sorted
// lexicographically. The slice is shared; callers must not mutate it.
func (ft *FailoverTables) Pairs() [][2]int32 { return ft.pairs }

// Layout returns the tables' flat arrays, indexed by Pairs() order.
func (ft *FailoverTables) Layout() Layout { return ft.lay }

// PairIndex returns the index of the ordered pair (src, dst) in Pairs(),
// or -1 when the tables hold no entry for it.
func (ft *FailoverTables) PairIndex(src, dst int) int {
	if src < 0 || src >= ft.n || dst < 0 || dst >= ft.n {
		return -1
	}
	key := [2]int32{int32(src), int32(dst)}
	lo, hi := 0, len(ft.pairs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p := ft.pairs[mid]; p[0] < key[0] || p[0] == key[0] && p[1] < key[1] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ft.pairs) && ft.pairs[lo] == key {
		return lo
	}
	return -1
}

// NextRanked returns the ranked next hops at node `at` for the pair
// (src, dst), primary first. The slice is shared; callers must not
// mutate it.
func (ft *FailoverTables) NextRanked(at, src, dst int) []int32 {
	p := ft.PairIndex(src, dst)
	if p < 0 || at < 0 || at >= ft.n {
		return nil
	}
	return ft.lay.Ranked(ft.lay.Entry(int32(p), int32(at)))
}

// WalkUnderFaults forwards a packet from src to dst hop by hop with
// local failover: at each node the first live ranked entry is taken,
// where an entry nx is live iff neither the link to nx nor nx itself is
// faulty. The walk is deterministic, always terminates within
// min(alive, n) hops, and always returns one of the three classified
// outcomes. A faulty src or dst blackholes immediately (the packet can
// be neither sent nor received), and so does one outside 0..n-1.
func (ft *FailoverTables) WalkUnderFaults(src, dst int, faults *FaultSet) WalkResult {
	if faults == nil {
		faults = NewFaultSet(ft.n)
	}
	res := WalkResult{Outcome: Blackhole, Path: Path{src}}
	if src < 0 || src >= ft.n || dst < 0 || dst >= ft.n || faults.NodeFaulty(src) || faults.NodeFaulty(dst) {
		return res
	}
	if src == dst {
		res.Outcome = Delivered
		return res
	}
	p := int32(ft.PairIndex(src, dst))
	if p < 0 {
		return res
	}
	visited := make([]uint64, (ft.n+63)/64)
	visited[src>>6] |= 1 << (uint(src) & 63)
	at, e := src, ft.lay.Entry(p, int32(src))
	for {
		nx, rank := liveNext(ft.lay.Ranked(e), at, faults)
		if nx < 0 {
			return res
		}
		if rank > 0 {
			res.Failovers++
		}
		res.Path = append(res.Path, nx)
		res.Hops++
		if nx == dst {
			res.Outcome = Delivered
			return res
		}
		w, bit := nx>>6, uint64(1)<<(uint(nx)&63)
		if visited[w]&bit != 0 {
			res.Outcome = Loop
			return res
		}
		visited[w] |= bit
		at, e = nx, ft.lay.HopEnt[ft.lay.HopOff[e]+int32(rank)]
	}
}

// liveNext returns the first live hop of the ranked entry held at `at`
// and its rank, or (-1, -1) if no hop is live.
func liveNext(ranked []int32, at int, faults *FaultSet) (int, int) {
	for rank, nx := range ranked {
		n := int(nx)
		if faults.NodeFaulty(n) || faults.LinkFaulty(at, n) {
			continue
		}
		return n, rank
	}
	return -1, -1
}
