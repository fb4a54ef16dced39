package eval

import (
	"math/bits"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// WalkEngine is the incremental evaluation engine for static-failover
// walks under mixed faults — the packet-level analogue of Engine. It
// walks the tables' own flat layout (routing.Layout), compiling only
// what depends on the graph: each hop's link item and each node's
// endpoint pairs. Per ordered pair it caches the current walk: its
// outcome, the items it uses (for each hop, the link when the hop is a
// graph edge, then the node it enters), and the items it blocked on
// (for each entry it consulted and skipped, the faulty link and the
// faulty target node). Faults are items of the nodes-then-links id
// space (node v is item v, link i of g.Edges() is item n+i), and
// inverted item→pairs bitset rows over both lists make invalidation
// exact:
//
//   - Failing an item changes the walk of exactly the pairs whose cached
//     walk uses it. Every entry ranked before the one a walk took was
//     already dead, and a taken entry that avoids the item stays live,
//     so a walk that never used the item replays identically.
//   - Repairing an item changes the walk of exactly the pairs whose
//     cached walk blocked on it: repairing an item no walk was deflected
//     by cannot improve any decision it made. Blocked lists include
//     every dead entry at a blackhole node, so blackholed pairs recover
//     as soon as one of their entries does.
//   - A node item also changes the pairs with the node as an endpoint:
//     they become Skipped when it fails (no packet to forward) and are
//     walked again when it is repaired.
//
// Each toggle therefore re-walks only the affected pairs, maintaining
// CutStats incrementally, while the oracle re-walks all P pairs
// per probed fault set. Clone() shares the compiled arrays and copies
// only the mutable walk cache, which is what the parallel adversary's
// per-worker clones use.
//
// Its client is the adversary (WorstLinkCuts, WorstMixedFaults and
// their parallel forms), which scores thousands of fault sets over
// every pair. One fault set costs less through EvaluateMixedFaults, and
// one message less through WalkUnderFaults, which is how netsim
// forwards.
type WalkEngine struct {
	g         *graph.Graph // neighbor order for the concentrator probe (read-only)
	n         int          // nodes
	pairWords int          // uint64 words per item→pairs bitset row

	// Compiled form, shared read-only between clones.
	t            *routing.FailoverTables // per-node entry counts, for the concentrator probe
	pairs        [][2]int32              // pair id -> (src, dst): t.Pairs()
	lay          routing.Layout          // t's entries and ranked hops, indexed by pair id
	hopLink      []int32                 // hop -> item of the (at, hop) link; -1 = not a graph edge, never cuttable
	items        *graph.Items            // item numbering
	endpointRows []uint64                // node -> bitset over pairs with the node as src or dst

	// Mutable walk cache, deep-copied by Clone.
	faults    *graph.Bitset // failed nodes and cut links, as items
	outcome   []routing.Outcome
	uses      [][]int32 // pair -> items its walk uses, hop order; each hop ends with the node it enters
	blocked   [][]int32 // pair -> faulty items its walk consulted and skipped
	useRows   []uint64  // item -> bitset over pairs with the item in uses
	blockRows []uint64  // item -> bitset over pairs with the item in blocked
	stats     CutStats
	lambda    float64 // Config.SkippedWeight of the search running on the engine

	// Walk scratch, per clone.
	stamp   []int64 // node -> epoch of last visit (loop detection)
	epoch   int64
	scratch []uint64 // snapshot of one item row during a toggle
}

// NewWalkEngine compiles tables t (built for graph g) and walks every
// pair once under the empty cut set. The tables and graph are only
// read, never retained mutably; the engine itself is not safe for
// concurrent use — use Clone for parallel searches.
func NewWalkEngine(t *routing.FailoverTables, g *graph.Graph) *WalkEngine {
	P := len(t.Pairs())
	we := &WalkEngine{
		g:         g,
		n:         g.N(),
		pairWords: (P + 63) / 64,
		t:         t,
		pairs:     t.Pairs(),
		lay:       t.Layout(),
		items:     graph.NewItems(g),
	}
	we.hopLink = make([]int32, len(we.lay.Hops))
	for e, at := range we.lay.EntAt {
		for h := we.lay.HopOff[e]; h < we.lay.HopOff[e+1]; h++ {
			we.hopLink[h] = -1
			if it, ok := we.items.Link(int(at), int(we.lay.Hops[h])); ok {
				we.hopLink[h] = int32(it)
			}
		}
	}
	we.endpointRows = make([]uint64, we.n*we.pairWords)
	for p, pr := range we.pairs {
		w, bit := p>>6, uint64(1)<<(uint(p)&63)
		we.endpointRows[int(pr[0])*we.pairWords+w] |= bit
		we.endpointRows[int(pr[1])*we.pairWords+w] |= bit
	}
	items := we.n + we.items.M()
	we.faults = graph.NewBitset(items)
	we.outcome = make([]routing.Outcome, P)
	we.uses = make([][]int32, P)
	we.blocked = make([][]int32, P)
	we.useRows = make([]uint64, items*we.pairWords)
	we.blockRows = make([]uint64, items*we.pairWords)
	we.stamp = make([]int64, we.n)
	we.scratch = make([]uint64, we.pairWords)
	we.stats.Pairs = P
	for p := 0; p < P; p++ {
		out := we.walk(int32(p))
		we.outcome[p] = out
		we.indexPair(int32(p), true)
		we.bumpStats(out, 1)
	}
	return we
}

// Clone returns an independent engine over the same compiled tables:
// the flat arrays are shared read-only, the walk cache is deep-copied.
func (we *WalkEngine) Clone() *WalkEngine {
	c := *we
	c.faults = we.faults.Clone()
	c.outcome = append([]routing.Outcome(nil), we.outcome...)
	c.uses = cloneItemLists(we.uses)
	c.blocked = cloneItemLists(we.blocked)
	c.useRows = append([]uint64(nil), we.useRows...)
	c.blockRows = append([]uint64(nil), we.blockRows...)
	c.stamp = make([]int64, we.n)
	c.epoch = 0
	c.scratch = make([]uint64, we.pairWords)
	return &c
}

// cloneItemLists deep-copies per-pair item lists into one backing
// array. Capacities are pinned to lengths so a later append relocates
// the pair's slice instead of overwriting a neighbor's.
func cloneItemLists(lists [][]int32) [][]int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	backing := make([]int32, 0, total)
	out := make([][]int32, len(lists))
	for i, l := range lists {
		a := len(backing)
		backing = append(backing, l...)
		out[i] = backing[a:len(backing):len(backing)]
	}
	return out
}

// N returns the node count.
func (we *WalkEngine) N() int { return we.n }

// Links returns the number of cuttable links.
func (we *WalkEngine) Links() int { return we.items.M() }

// PairCount returns the number of ordered pairs with table entries.
func (we *WalkEngine) PairCount() int { return len(we.pairs) }

// Pair returns pair i as (src, dst), in FailoverTables.Pairs() order.
func (we *WalkEngine) Pair(i int) (src, dst int) {
	return int(we.pairs[i][0]), int(we.pairs[i][1])
}

// Outcome returns the cached walk outcome of pair i under the current
// cut set.
func (we *WalkEngine) Outcome(i int) routing.Outcome { return we.outcome[i] }

// Stats returns the outcome counts over all pairs under the current
// fault set — the value EvaluateMixedFaults recomputes by walking every
// pair.
func (we *WalkEngine) Stats() CutStats { return we.stats }

// DisruptedPairs returns the pairs currently blackholed or looping, in
// pair order. Skipped pairs (a failed endpoint) are not disrupted: no
// packet exists to be misrouted.
func (we *WalkEngine) DisruptedPairs() [][2]int32 {
	var out [][2]int32
	for i, o := range we.outcome {
		if o == routing.Blackhole || o == routing.Loop {
			out = append(out, we.pairs[i])
		}
	}
	return out
}

// CutList returns the current cut set, normalized and sorted (link-id
// order coincides with endpoint order because links are compiled from
// the sorted g.Edges()).
func (we *WalkEngine) CutList() []routing.EdgeFault {
	_, cuts := split(we.items, we.faults.Elements())
	return cuts
}

// HasLinkCut reports whether the link {u, v} is currently cut.
func (we *WalkEngine) HasLinkCut(u, v int) bool {
	it, ok := we.items.Link(u, v)
	return ok && we.faults.Has(it)
}

// AddLinkCut cuts the link {u, v} and re-walks exactly the pairs whose
// cached walk traversed it. Unknown links and already-cut links are
// no-ops.
func (we *WalkEngine) AddLinkCut(u, v int) {
	if it, ok := we.items.Link(u, v); ok {
		we.toggle(it, true)
	}
}

// RemoveLinkCut repairs the link {u, v} and re-walks exactly the pairs
// whose cached walk was deflected by it.
func (we *WalkEngine) RemoveLinkCut(u, v int) {
	if it, ok := we.items.Link(u, v); ok {
		we.toggle(it, false)
	}
}

// HasNodeFault reports whether node v is currently failed.
func (we *WalkEngine) HasNodeFault(v int) bool { return v < we.n && we.faults.Has(v) }

// NodeFaultList returns the currently failed nodes, sorted. The empty
// set is a non-nil empty slice, like MixedCutResult.WorstNodes.
func (we *WalkEngine) NodeFaultList() []int {
	nodes, _ := split(we.items, we.faults.Elements())
	return nodes
}

// AddNodeFault fails node v and re-walks exactly the pairs whose cached
// walk enters v plus the pairs with v as an endpoint (which become
// Skipped). Out-of-range and already-failed nodes are no-ops.
func (we *WalkEngine) AddNodeFault(v int) {
	if v >= 0 && v < we.n {
		we.toggle(v, true)
	}
}

// RemoveNodeFault repairs node v and re-walks exactly the pairs whose
// cached walk was deflected by v's fault plus v's endpoint pairs.
func (we *WalkEngine) RemoveNodeFault(v int) {
	if v >= 0 && v < we.n {
		we.toggle(v, false)
	}
}

// toggle fails (on) or repairs one item and re-walks the pairs it can
// change: the pairs that use a failed item, the pairs that blocked on a
// repaired one, and for a node item its endpoint pairs. Repeating the
// current state, and ids past the universe, are no-ops. Every fault
// mutator of the WalkEngine is a call to it.
func (we *WalkEngine) toggle(item int, on bool) {
	if item >= we.faults.Cap() || we.faults.Has(item) == on {
		return
	}
	rows := we.blockRows
	if on {
		we.faults.Add(item)
		rows = we.useRows
	} else {
		we.faults.Remove(item)
	}
	// Snapshot the rows first: each re-walk edits the live ones.
	pw := we.pairWords
	copy(we.scratch, rows[item*pw:(item+1)*pw])
	if item < we.n {
		for i, word := range we.endpointRows[item*pw : (item+1)*pw] {
			we.scratch[i] |= word
		}
	}
	for wi, word := range we.scratch {
		for ; word != 0; word &= word - 1 {
			we.rewalk(int32(wi<<6 | bits.TrailingZeros64(word)))
		}
	}
}

// SetCuts replaces the current cut set with exactly the given links via
// symmetric-difference toggles, so consecutive similar sets stay cheap.
func (we *WalkEngine) SetCuts(cuts []routing.EdgeFault) {
	move(we.faults, set(we.items, nil, cuts), we.n, we.faults.Cap(), we.toggle)
}

// SetMixedFaults replaces the current mixed fault set with exactly the
// given failed nodes and cut links via symmetric-difference toggles, so
// consecutive similar sets stay cheap. Out-of-range nodes and unknown
// links are ignored.
func (we *WalkEngine) SetMixedFaults(nodes []int, cuts []routing.EdgeFault) {
	move(we.faults, set(we.items, nodes, cuts), 0, we.faults.Cap(), we.toggle)
}

// Reset repairs every cut link and every failed node.
func (we *WalkEngine) Reset() { move(we.faults, nil, 0, we.faults.Cap(), we.toggle) }

// rewalk re-walks pair p, refreshing its cache rows and the running
// stats.
func (we *WalkEngine) rewalk(p int32) {
	we.indexPair(p, false)
	old := we.outcome[p]
	out := we.walk(p)
	we.indexPair(p, true)
	if out != old {
		we.bumpStats(old, -1)
		we.bumpStats(out, 1)
		we.outcome[p] = out
	}
}

// bumpStats adjusts the outcome counter for o by d (Pairs is fixed).
func (we *WalkEngine) bumpStats(o routing.Outcome, d int) {
	switch o {
	case routing.Delivered:
		we.stats.Delivered += d
	case routing.Blackhole:
		we.stats.Blackhole += d
	case routing.Skipped:
		we.stats.Skipped += d
	default:
		we.stats.Loop += d
	}
}

// indexPair sets (on=true) or clears pair p's bits in the item rows of
// its cached uses and blocked lists. Duplicate items (a loop walk's
// revisited node, a link blocked at two nodes) are harmless: set and
// clear are idempotent.
func (we *WalkEngine) indexPair(p int32, on bool) {
	w, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
	if on {
		for _, it := range we.uses[p] {
			we.useRows[int(it)*we.pairWords+w] |= bit
		}
		for _, it := range we.blocked[p] {
			we.blockRows[int(it)*we.pairWords+w] |= bit
		}
		return
	}
	for _, it := range we.uses[p] {
		we.useRows[int(it)*we.pairWords+w] &^= bit
	}
	for _, it := range we.blocked[p] {
		we.blockRows[int(it)*we.pairWords+w] &^= bit
	}
}

// walk replays pair p's forwarding walk under the current mixed fault
// set, rebuilding its uses and blocked lists, and returns the outcome.
// Semantics mirror FailoverTables.WalkUnderFaults — an entry is dead
// iff its link or its target node is faulty, the first live ranked
// entry is taken, Delivered on reaching dst, Blackhole when no live
// entry exists, Loop on a node revisit (epoch-stamped, allocation-free)
// — except that a failed src or dst yields Skipped: there is no packet
// to walk. An entry dead for both reasons blocks on both items, so
// repairing either one alone re-walks the pair (a no-op walk, but never
// a missed invalidation).
func (we *WalkEngine) walk(p int32) routing.Outcome {
	we.uses[p] = we.uses[p][:0]
	we.blocked[p] = we.blocked[p][:0]
	src, dst := we.pairs[p][0], we.pairs[p][1]
	if we.faults.Has(int(src)) || we.faults.Has(int(dst)) {
		return routing.Skipped
	}
	if src == dst {
		return routing.Delivered
	}
	we.epoch++
	we.stamp[src] = we.epoch
	e := we.lay.Entry(p, src)
	for {
		took := int32(-1)
		if e >= 0 {
			for h := we.lay.HopOff[e]; h < we.lay.HopOff[e+1]; h++ {
				link, nx := we.hopLink[h], we.lay.Hops[h]
				dead := false
				if link >= 0 && we.faults.Has(int(link)) {
					we.blocked[p] = append(we.blocked[p], link)
					dead = true
				}
				if we.faults.Has(int(nx)) {
					we.blocked[p] = append(we.blocked[p], nx)
					dead = true
				}
				if dead {
					continue
				}
				took = h
				break
			}
		}
		if took < 0 {
			return routing.Blackhole
		}
		if link := we.hopLink[took]; link >= 0 {
			we.uses[p] = append(we.uses[p], link)
		}
		nx := we.lay.Hops[took]
		we.uses[p] = append(we.uses[p], nx)
		if nx == dst {
			return routing.Delivered
		}
		if we.stamp[nx] == we.epoch {
			return routing.Loop
		}
		we.stamp[nx] = we.epoch
		e = we.lay.HopEnt[took]
	}
}
