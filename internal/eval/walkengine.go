package eval

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// WalkEngine is the incremental evaluation engine for static-failover
// walks under mixed faults — the packet-level analogue of Engine. It
// walks the tables' own flat layout (routing.Layout), compiling only
// what depends on the graph: each hop's link item, each pair's entry at
// its source, and an index from each item to its candidate pairs, the
// pairs whose entries hold a hop over or to the item or that have the
// item as an endpoint. Faults are items of the nodes-then-links id
// space (node v is item v, link i of g.Edges() is item n+i).
//
// Per ordered pair it keeps the current outcome and a walk record: for
// each step, the faulty items it blocked on (the faulty link and the
// faulty target of each ranked hop it skipped), then the hop it took. A
// toggle scans the record of each candidate of the item and walks a
// pair again exactly when the item touches one of its steps, from the
// first such step on:
//
//   - Failing an item changes the walk of exactly the pairs that took a
//     hop over or to it. Every hop ranked before a taken one was already
//     dead, and a taken hop that avoids the item stays live, so the
//     steps before the first such hop replay identically.
//   - Repairing an item changes the walk of exactly the pairs that
//     blocked on it: repairing an item no step was deflected by cannot
//     improve any decision it made, and the steps before the first one
//     that blocked on it keep their decisions. A hop dead for two
//     reasons blocks on both, and every dead hop at a blackhole node is
//     recorded, so blackholed pairs recover as soon as one hop does.
//   - A node item also changes the pairs with the node as an endpoint:
//     they become Skipped when it fails (no packet to forward) and are
//     walked from the start when it is repaired.
//
// A resumed walk re-stamps the nodes of the steps it keeps, for loop
// detection, and follows HopEnt from the last hop it keeps. Each toggle
// therefore re-walks only the affected pairs, and only their changed
// suffix, maintaining CutStats incrementally, while the oracle re-walks
// all P pairs per probed fault set; probe scores the set plus one item
// with the same scan without storing anything. Clone() shares the
// compiled arrays and copies only the mutable walk cache, which is what
// the parallel adversary's per-worker clones use.
//
// Its client is the adversary (WorstLinkCuts, WorstMixedFaults and
// their parallel forms), which scores thousands of fault sets over
// every pair. One fault set costs less through EvaluateMixedFaults, and
// one message less through WalkUnderFaults, which is how netsim
// forwards.
type WalkEngine struct {
	g *graph.Graph // neighbor order for the concentrator probe (read-only)
	n int          // nodes

	// Compiled form, shared read-only between clones.
	t       *routing.FailoverTables // per-node entry counts, for the concentrator probe
	pairs   [][2]int32              // pair id -> (src, dst): t.Pairs()
	lay     routing.Layout          // t's entries and ranked hops, indexed by pair id
	hopLink []int32                 // hop -> item of the (at, hop) link; -1 = not a graph edge, never cuttable
	srcEnt  []int32                 // pair -> its entry at its source, -1 when it holds none
	items   *graph.Items            // item numbering
	candOff []int                   // item -> range in cands, len n+m+1
	cands   []int32                 // each item's candidate pairs, ascending

	// Mutable walk cache, deep-copied by Clone.
	faults  *graph.Bitset // failed nodes and cut links, as items
	outcome []routing.Outcome
	rec     [][]int32 // pair -> walk record: per step, the blocked items (>= 0), then ^hop taken
	stats   CutStats
	lambda  float64 // Config.SkippedWeight of the search running on the engine

	// Walk scratch, per clone.
	stamp   []int64 // node -> epoch of last visit (loop detection)
	epoch   int64
	scratch []int32 // the record of a probe's walk, discarded
}

// NewWalkEngine compiles tables t (built for graph g) and walks every
// pair once under the empty fault set. The tables and graph are only
// read, never retained mutably; the engine itself is not safe for
// concurrent use — use Clone for parallel searches.
func NewWalkEngine(t *routing.FailoverTables, g *graph.Graph) *WalkEngine {
	P := len(t.Pairs())
	we := &WalkEngine{
		g:     g,
		n:     g.N(),
		t:     t,
		pairs: t.Pairs(),
		lay:   t.Layout(),
		items: graph.NewItems(g),
	}
	we.hopLink = make([]int32, len(we.lay.Hops))
	for e, at := range we.lay.EntAt {
		for h := we.lay.HopOff[e]; h < we.lay.HopOff[e+1]; h++ {
			we.hopLink[h] = -1
			if l, ok := we.items.Link(int(at), int(we.lay.Hops[h])); ok {
				we.hopLink[h] = int32(l)
			}
		}
	}
	we.srcEnt = make([]int32, P)
	for p, pr := range we.pairs {
		we.srcEnt[p] = we.lay.Entry(int32(p), pr[0])
	}
	we.compileCandidates()
	we.faults = graph.NewBitset(we.n + we.items.M())
	we.outcome = make([]routing.Outcome, P)
	we.stamp = make([]int64, we.n)
	we.stats.Pairs = P
	// Walk every pair into one backing array, then pin each record's
	// capacity so a longer re-walk relocates it instead of overwriting
	// the next pair's.
	we.rec = make([][]int32, P)
	var backing []int32
	ends := make([]int, P)
	for p := range ends {
		var out routing.Outcome
		backing, out = we.walk(int32(p), 0, backing)
		ends[p] = len(backing)
		we.outcome[p] = out
		we.stats.add(out, 1)
	}
	start := 0
	for p, end := range ends {
		we.rec[p] = backing[start:end:end]
		start = end
	}
	return we
}

// compileCandidates builds the item -> candidate pairs index in two
// counting passes over the pairs, one to size the rows and one to fill
// them, each in ascending pair order.
func (we *WalkEngine) compileCandidates() {
	items := we.n + we.items.M()
	stamp := make([]int32, items)
	var buf []int32
	we.candOff = make([]int, items+1)
	for p := range we.pairs {
		buf = we.pairItems(p, stamp, buf[:0])
		for _, it := range buf {
			we.candOff[it+1]++
		}
	}
	for it := 0; it < items; it++ {
		we.candOff[it+1] += we.candOff[it]
	}
	we.cands = make([]int32, we.candOff[items])
	next := append([]int(nil), we.candOff[:items]...)
	clear(stamp)
	for p := range we.pairs {
		buf = we.pairItems(p, stamp, buf[:0])
		for _, it := range buf {
			we.cands[next[it]] = int32(p)
			next[it]++
		}
	}
}

// pairItems appends pair p's distinct items to buf: its endpoints, then
// the link and the target of each of its hops. An item is listed once
// per pass, when its stamp is not yet 1 + p.
func (we *WalkEngine) pairItems(p int, stamp, buf []int32) []int32 {
	mark := int32(p) + 1
	for _, it := range we.pairs[p] {
		if stamp[it] != mark {
			stamp[it] = mark
			buf = append(buf, it)
		}
	}
	for h := we.lay.HopOff[we.lay.EntOff[p]]; h < we.lay.HopOff[we.lay.EntOff[p+1]]; h++ {
		if it := we.hopLink[h]; it >= 0 && stamp[it] != mark {
			stamp[it] = mark
			buf = append(buf, it)
		}
		if it := we.lay.Hops[h]; stamp[it] != mark {
			stamp[it] = mark
			buf = append(buf, it)
		}
	}
	return buf
}

// Clone returns an independent engine over the same compiled tables:
// the flat arrays are shared read-only, the walk cache is deep-copied.
func (we *WalkEngine) Clone() *WalkEngine {
	c := *we
	c.faults = we.faults.Clone()
	c.outcome = append([]routing.Outcome(nil), we.outcome...)
	c.rec = cloneRecords(we.rec)
	c.stamp = make([]int64, we.n)
	c.epoch = 0
	c.scratch = nil
	return &c
}

// cloneRecords deep-copies per-pair walk records into one backing
// array. Capacities are pinned to lengths so a later append relocates
// the pair's slice instead of overwriting a neighbor's.
func cloneRecords(recs [][]int32) [][]int32 {
	total := 0
	for _, r := range recs {
		total += len(r)
	}
	backing := make([]int32, 0, total)
	out := make([][]int32, len(recs))
	for i, r := range recs {
		a := len(backing)
		backing = append(backing, r...)
		out[i] = backing[a:len(backing):len(backing)]
	}
	return out
}

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

// toggle fails (on) or repairs one item and walks again, from the
// first step the item touches, the candidate pairs whose record it
// touches (see rewalk). Repeating the current state, and ids past the
// universe, are no-ops. Every fault mutator of the WalkEngine is a call
// to it.
func (we *WalkEngine) toggle(item int, on bool) {
	if item >= we.faults.Cap() || we.faults.Has(item) == on {
		return
	}
	if on {
		we.faults.Add(item)
	} else {
		we.faults.Remove(item)
	}
	we.rewalk(item, true)
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

// rewalk walks again every candidate pair of item whose record the
// item touches, from the first step it touches, under the fault set
// with the item just flipped, and returns the stats that follow. With
// commit it stores each pair's new record and outcome and the stats;
// without, the walks go to the scratch record and nothing is stored,
// which is what probe scores with.
func (we *WalkEngine) rewalk(item int, commit bool) CutStats {
	stats := we.stats
	for _, p := range we.cands[we.candOff[item]:we.candOff[item+1]] {
		off := we.touches(p, int32(item))
		if off < 0 {
			continue
		}
		var out routing.Outcome
		if commit {
			we.rec[p], out = we.walk(p, off, we.rec[p][:off])
		} else {
			we.scratch, out = we.walk(p, off, we.scratch[:0])
		}
		if old := we.outcome[p]; out != old {
			stats.add(old, -1)
			stats.add(out, 1)
			if commit {
				we.outcome[p] = out
			}
		}
	}
	if commit {
		we.stats = stats
	}
	return stats
}

// touches returns the record offset of the first step of pair p that
// item touches — a blocked item equal to it, or a taken hop over or to
// it — 0 when item is an endpoint of p, and -1 when it touches none. A
// failing item cannot be a blocked one and a repaired item cannot lie
// on a taken hop, so one scan serves both directions; a hop's target is
// a node item and its link a link item, so one array says whether a
// hop touches the item.
func (we *WalkEngine) touches(p, item int32) int {
	if pr := we.pairs[p]; pr[0] == item || pr[1] == item {
		return 0
	}
	via := we.lay.Hops
	if int(item) >= we.n {
		via = we.hopLink
	}
	step := 0
	for i, c := range we.rec[p] {
		switch {
		case c >= 0:
			if c == item {
				return step
			}
		case via[^c] == item:
			return step
		default:
			step = i + 1
		}
	}
	return -1
}

// add adjusts the outcome counter for o by d (Pairs is fixed).
func (s *CutStats) add(o routing.Outcome, d int) {
	switch o {
	case routing.Delivered:
		s.Delivered += d
	case routing.Blackhole:
		s.Blackhole += d
	case routing.Skipped:
		s.Skipped += d
	default:
		s.Loop += d
	}
}

// walk walks pair p under the current mixed fault set from offset off
// of its record on, appends the steps it takes to rec and returns rec
// and the outcome. The steps before off are kept: walk stamps their
// nodes and starts at the entry their last hop points to (the source's
// entry when off is 0). Semantics mirror
// FailoverTables.WalkUnderFaults — a hop is dead iff its link or its
// target node is faulty, the first live ranked hop is taken, Delivered
// on reaching dst, Blackhole when no live hop exists, Loop on a node
// revisit (epoch-stamped, allocation-free) — except that a failed src
// or dst yields Skipped with nothing recorded: there is no packet to
// walk.
func (we *WalkEngine) walk(p int32, off int, rec []int32) ([]int32, routing.Outcome) {
	src, dst := we.pairs[p][0], we.pairs[p][1]
	if we.faults.Has(int(src)) || we.faults.Has(int(dst)) {
		return rec, routing.Skipped
	}
	if src == dst {
		return rec, routing.Delivered
	}
	we.epoch++
	we.stamp[src] = we.epoch
	e := we.srcEnt[p]
	for _, c := range we.rec[p][:off] {
		if c < 0 {
			we.stamp[we.lay.Hops[^c]] = we.epoch
			e = we.lay.HopEnt[^c]
		}
	}
	for {
		took := int32(-1)
		if e >= 0 {
			for h := we.lay.HopOff[e]; h < we.lay.HopOff[e+1]; h++ {
				link, nx := we.hopLink[h], we.lay.Hops[h]
				dead := false
				if link >= 0 && we.faults.Has(int(link)) {
					rec = append(rec, link)
					dead = true
				}
				if we.faults.Has(int(nx)) {
					rec = append(rec, nx)
					dead = true
				}
				if !dead {
					took = h
					break
				}
			}
		}
		if took < 0 {
			return rec, routing.Blackhole
		}
		rec = append(rec, ^took)
		nx := we.lay.Hops[took]
		if nx == dst {
			return rec, routing.Delivered
		}
		if we.stamp[nx] == we.epoch {
			return rec, routing.Loop
		}
		we.stamp[nx] = we.epoch
		e = we.lay.HopEnt[took]
	}
}
