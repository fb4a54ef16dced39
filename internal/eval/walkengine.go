package eval

import (
	"math/bits"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// WalkEngine is the incremental evaluation engine for static-failover
// walks under mixed faults — the packet-level analogue of Engine. It
// compiles FailoverTables once into flat arrays and caches, per ordered
// pair, the current walk: its outcome, the links it traverses (the hop
// sequence in edge-id form), the nodes it enters, and the links and
// nodes it consulted entries toward but skipped because they were
// faulty. Inverted item→pairs bitset indexes keep every cache queryable
// per link and per node, which makes invalidation exact:
//
//   - AddLinkCut(e) changes the walk of exactly the pairs whose cached
//     walk traverses e. Every entry ranked before the one a walk took
//     was already dead, and a taken entry other than e stays live, so a
//     walk that never crossed e replays identically.
//   - RemoveLinkCut(e) changes the walk of exactly the pairs whose
//     cached walk consulted-and-skipped e (the blocked set): repairing
//     a link no walk was deflected by cannot improve any decision it
//     made. Blocked sets include every cut entry at a blackhole node,
//     so blackholed pairs recover as soon as one of their entries does.
//   - AddNodeFault(v) changes the walk of exactly the pairs whose
//     cached walk enters v (the decision at v's predecessor flips, and
//     any decisions made at v disappear) plus the pairs with v as an
//     endpoint (they become Skipped — no packet to forward).
//   - RemoveNodeFault(v) changes the walk of exactly the pairs whose
//     cached walk consulted an entry toward v and skipped it because v
//     was failed, plus the endpoint pairs of v.
//
// Each toggle therefore re-walks only the affected pairs, maintaining
// CutStats incrementally, while the oracle re-walks all P pairs
// per probed fault set. Clone() shares the compiled arrays and copies
// only the mutable walk cache, which is what the parallel adversary's
// per-worker clones use.
type WalkEngine struct {
	g         *graph.Graph // cuttable links + neighbor order (read-only)
	n         int          // nodes
	m         int          // cuttable links (g.Edges())
	pairWords int          // uint64 words per link→pairs bitset row

	// Compiled form, shared read-only between clones.
	pairU, pairV []int32         // pair id -> (src, dst), FailoverTables.Pairs() order
	entOff       []int32         // pair id -> range in entAt/hopOff, len P+1
	entAt        []int32         // entry -> at-node, sorted within each pair
	hopOff       []int32         // entry -> range in hops/hopEdge, len E+1
	hops         []int32         // ranked next hops, primary first
	hopEdge      []int32         // hop -> edge id of the (at, hop) link; -1 = not a graph edge, never cuttable
	edgeU, edgeV []int32         // edge id -> endpoints (u < v), g.Edges() order
	edgeID       map[int64]int32 // normalized endpoint key -> edge id
	pairID       map[int64]int32 // src<<32|dst -> pair id
	entriesAt    []int32         // node -> decisions held (concentrator probe)
	endpointRows []uint64        // node -> bitset over pairs with the node as src or dst

	// Mutable walk cache, deep-copied by Clone.
	cut           *graph.Bitset // currently cut edge ids
	nodeFault     *graph.Bitset // currently failed nodes
	outcome       []routing.Outcome
	trav          [][]int32 // pair -> edge ids its walk traverses, hop order
	blocked       [][]int32 // pair -> cut edge ids its walk consulted and skipped
	visited       [][]int32 // pair -> nodes its walk enters (src excluded, dst included)
	blockedN      [][]int32 // pair -> failed nodes its walk consulted entries toward and skipped
	fails         []int32   // pair -> hops its walk took on a backup (rank > 0) entry
	travRows      []uint64  // edge -> bitset over pairs with the edge in trav
	blockRows     []uint64  // edge -> bitset over pairs with the edge in blocked
	visitRows     []uint64  // node -> bitset over pairs with the node in visited
	blockNodeRows []uint64  // node -> bitset over pairs with the node in blockedN
	stats         CutStats
	lambda        float64 // Config.SkippedWeight of the search running on the engine

	// Walk scratch, per clone.
	stamp   []int64 // node -> epoch of last visit (loop detection)
	epoch   int64
	scratch []uint64 // snapshot of one link row during a toggle
}

// NewWalkEngine compiles tables t (built for graph g) and walks every
// pair once under the empty cut set. The tables and graph are only
// read, never retained mutably; the engine itself is not safe for
// concurrent use — use Clone for parallel searches.
func NewWalkEngine(t *routing.FailoverTables, g *graph.Graph) *WalkEngine {
	edges := g.Edges()
	tpairs := t.Pairs()
	P := len(tpairs)
	we := &WalkEngine{
		g:         g,
		n:         g.N(),
		m:         len(edges),
		pairWords: (P + 63) / 64,
		pairU:     make([]int32, P),
		pairV:     make([]int32, P),
		edgeU:     make([]int32, len(edges)),
		edgeV:     make([]int32, len(edges)),
		edgeID:    make(map[int64]int32, len(edges)),
		entriesAt: make([]int32, g.N()),
	}
	for i, e := range edges {
		we.edgeU[i], we.edgeV[i] = int32(e[0]), int32(e[1])
		we.edgeID[edgeKeyNorm(e[0], e[1])] = int32(i)
	}
	we.pairID = make(map[int64]int32, P)
	for i, p := range tpairs {
		we.pairU[i], we.pairV[i] = p[0], p[1]
		we.pairID[int64(p[0])<<32|int64(p[1])] = int32(i)
	}
	pairID := we.pairID // alias for the compile closures below
	for v := 0; v < we.n && v < t.N(); v++ {
		we.entriesAt[v] = int32(t.EntriesAt(v))
	}
	// Group the table's decisions by pair with a two-pass counting
	// placement (cheaper than a global sort), then at-sort each pair's
	// short run in place so entryOf can binary-search it.
	type decision struct {
		at     int32
		ranked []int32
	}
	we.entOff = make([]int32, P+1)
	hopTotal := 0
	t.EachEntry(func(at, src, dst int, ranked []int32) {
		if id, ok := pairID[int64(src)<<32|int64(dst)]; ok {
			we.entOff[id+1]++
			hopTotal += len(ranked)
		}
	})
	for p := 0; p < P; p++ {
		we.entOff[p+1] += we.entOff[p]
	}
	E := int(we.entOff[P])
	decs := make([]decision, E)
	fill := append([]int32(nil), we.entOff[:P]...)
	t.EachEntry(func(at, src, dst int, ranked []int32) {
		if id, ok := pairID[int64(src)<<32|int64(dst)]; ok {
			decs[fill[id]] = decision{at: int32(at), ranked: ranked}
			fill[id]++
		}
	})
	for p := 0; p < P; p++ {
		run := decs[we.entOff[p]:we.entOff[p+1]]
		for i := 1; i < len(run); i++ { // runs are walk-length short
			for j := i; j > 0 && run[j].at < run[j-1].at; j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
	}
	we.entAt = make([]int32, E)
	we.hopOff = make([]int32, E+1)
	we.hops = make([]int32, 0, hopTotal)
	we.hopEdge = make([]int32, 0, hopTotal)
	for i, d := range decs {
		we.entAt[i] = d.at
		we.hopOff[i+1] = we.hopOff[i] + int32(len(d.ranked))
		for _, nx := range d.ranked {
			we.hops = append(we.hops, nx)
			eid := int32(-1)
			if id, ok := we.edgeID[edgeKeyNorm(int(d.at), int(nx))]; ok {
				eid = id
			}
			we.hopEdge = append(we.hopEdge, eid)
		}
	}
	we.endpointRows = make([]uint64, we.n*we.pairWords)
	for p := 0; p < P; p++ {
		w, bit := p>>6, uint64(1)<<(uint(p)&63)
		we.endpointRows[int(we.pairU[p])*we.pairWords+w] |= bit
		we.endpointRows[int(we.pairV[p])*we.pairWords+w] |= bit
	}
	we.cut = graph.NewBitset(we.m)
	we.nodeFault = graph.NewBitset(we.n)
	we.outcome = make([]routing.Outcome, P)
	we.trav = make([][]int32, P)
	we.blocked = make([][]int32, P)
	we.visited = make([][]int32, P)
	we.blockedN = make([][]int32, P)
	we.fails = make([]int32, P)
	we.travRows = make([]uint64, we.m*we.pairWords)
	we.blockRows = make([]uint64, we.m*we.pairWords)
	we.visitRows = make([]uint64, we.n*we.pairWords)
	we.blockNodeRows = make([]uint64, we.n*we.pairWords)
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

// edgeKeyNorm is the normalized undirected link key, matching
// Engine.edgeKey's convention.
func edgeKeyNorm(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// Clone returns an independent engine over the same compiled tables:
// the flat arrays are shared read-only, the walk cache is deep-copied.
func (we *WalkEngine) Clone() *WalkEngine {
	c := *we
	c.cut = we.cut.Clone()
	c.nodeFault = we.nodeFault.Clone()
	c.outcome = append([]routing.Outcome(nil), we.outcome...)
	c.trav = cloneLinkLists(we.trav)
	c.blocked = cloneLinkLists(we.blocked)
	c.visited = cloneLinkLists(we.visited)
	c.blockedN = cloneLinkLists(we.blockedN)
	c.fails = append([]int32(nil), we.fails...)
	c.travRows = append([]uint64(nil), we.travRows...)
	c.blockRows = append([]uint64(nil), we.blockRows...)
	c.visitRows = append([]uint64(nil), we.visitRows...)
	c.blockNodeRows = append([]uint64(nil), we.blockNodeRows...)
	c.stamp = make([]int64, we.n)
	c.epoch = 0
	c.scratch = make([]uint64, we.pairWords)
	return &c
}

// cloneLinkLists deep-copies per-pair item lists (link or node) into
// one backing array. Capacities are pinned to lengths so a later append
// relocates the pair's slice instead of overwriting a neighbor's.
func cloneLinkLists(lists [][]int32) [][]int32 {
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
func (we *WalkEngine) Links() int { return we.m }

// PairCount returns the number of ordered pairs with table entries.
func (we *WalkEngine) PairCount() int { return len(we.pairU) }

// Pair returns pair i as (src, dst), in FailoverTables.Pairs() order.
func (we *WalkEngine) Pair(i int) (src, dst int) {
	return int(we.pairU[i]), int(we.pairV[i])
}

// Outcome returns the cached walk outcome of pair i under the current
// cut set.
func (we *WalkEngine) Outcome(i int) routing.Outcome { return we.outcome[i] }

// Stats returns the outcome counts over all pairs under the current
// cut set — the value EvaluateCuts recomputes by walking every pair.
func (we *WalkEngine) Stats() CutStats { return we.stats }

// DisruptedPairs returns the pairs currently blackholed or looping, in
// pair order. Skipped pairs (a failed endpoint) are not disrupted: no
// packet exists to be misrouted.
func (we *WalkEngine) DisruptedPairs() [][2]int32 {
	var out [][2]int32
	for i, o := range we.outcome {
		if o == routing.Blackhole || o == routing.Loop {
			out = append(out, [2]int32{we.pairU[i], we.pairV[i]})
		}
	}
	return out
}

// PairID returns the pair id of the ordered pair (src, dst), or -1 when
// the tables hold no entry for it. Pair ids index the per-pair walk
// accessors below and stay valid for the engine's lifetime.
func (we *WalkEngine) PairID(src, dst int) int {
	if id, ok := we.pairID[int64(src)<<32|int64(dst)]; ok {
		return int(id)
	}
	return -1
}

// WalkHops returns the link traversals of pair p's cached walk under
// the current fault set — len(Path)-1 of the equivalent WalkUnderFaults
// result. Skipped pairs report 0.
func (we *WalkEngine) WalkHops(p int) int { return len(we.visited[p]) }

// WalkFailovers returns how many hops of pair p's cached walk used a
// backup (rank > 0) entry, matching WalkResult.Failovers.
func (we *WalkEngine) WalkFailovers(p int) int { return int(we.fails[p]) }

// WalkStuck returns the node pair p's cached walk ended at: dst when
// delivered, the dead-end node on a blackhole, the first revisited node
// on a loop, and the source when the walk never left it.
func (we *WalkEngine) WalkStuck(p int) int {
	if l := we.visited[p]; len(l) > 0 {
		return int(l[len(l)-1])
	}
	return int(we.pairU[p])
}

// CutList returns the current cut set, normalized and sorted (edge-id
// order coincides with endpoint order because edges are compiled from
// the sorted g.Edges()).
func (we *WalkEngine) CutList() []routing.EdgeFault {
	ids := we.cut.Elements()
	out := make([]routing.EdgeFault, len(ids))
	for i, id := range ids {
		out[i] = routing.EdgeFault{U: int(we.edgeU[id]), V: int(we.edgeV[id])}
	}
	return out
}

// HasLinkCut reports whether the link {u, v} is currently cut.
func (we *WalkEngine) HasLinkCut(u, v int) bool {
	id, ok := we.edgeID[edgeKeyNorm(u, v)]
	return ok && we.cut.Has(int(id))
}

// AddLinkCut cuts the link {u, v} and re-walks exactly the pairs whose
// cached walk traversed it. Unknown links and already-cut links are
// no-ops.
func (we *WalkEngine) AddLinkCut(u, v int) {
	if id, ok := we.edgeID[edgeKeyNorm(u, v)]; ok {
		we.addCut(int(id))
	}
}

// RemoveLinkCut repairs the link {u, v} and re-walks exactly the pairs
// whose cached walk was deflected by it.
func (we *WalkEngine) RemoveLinkCut(u, v int) {
	if id, ok := we.edgeID[edgeKeyNorm(u, v)]; ok {
		we.removeCut(int(id))
	}
}

// addCut is AddLinkCut by edge id.
func (we *WalkEngine) addCut(id int) {
	if we.cut.Has(id) {
		return
	}
	we.cut.Add(id)
	we.rewalkRow(we.travRows[id*we.pairWords : (id+1)*we.pairWords])
}

// removeCut is RemoveLinkCut by edge id.
func (we *WalkEngine) removeCut(id int) {
	if !we.cut.Has(id) {
		return
	}
	we.cut.Remove(id)
	we.rewalkRow(we.blockRows[id*we.pairWords : (id+1)*we.pairWords])
}

// HasNodeFault reports whether node v is currently failed.
func (we *WalkEngine) HasNodeFault(v int) bool {
	return v >= 0 && v < we.n && we.nodeFault.Has(v)
}

// NodeFaultList returns the currently failed nodes, sorted. The empty
// set is a non-nil empty slice, like MixedCutResult.WorstNodes.
func (we *WalkEngine) NodeFaultList() []int {
	return append(make([]int, 0, we.nodeFault.Count()), we.nodeFault.Elements()...)
}

// AddNodeFault fails node v and re-walks exactly the pairs whose cached
// walk enters v plus the pairs with v as an endpoint (which become
// Skipped). Out-of-range and already-failed nodes are no-ops.
func (we *WalkEngine) AddNodeFault(v int) {
	if v >= 0 && v < we.n {
		we.addNodeFault(v)
	}
}

// RemoveNodeFault repairs node v and re-walks exactly the pairs whose
// cached walk was deflected by v's fault plus v's endpoint pairs.
func (we *WalkEngine) RemoveNodeFault(v int) {
	if v >= 0 && v < we.n {
		we.removeNodeFault(v)
	}
}

// addNodeFault is AddNodeFault with v known in range.
func (we *WalkEngine) addNodeFault(v int) {
	if we.nodeFault.Has(v) {
		return
	}
	we.nodeFault.Add(v)
	we.rewalkRows(we.visitRows[v*we.pairWords:(v+1)*we.pairWords],
		we.endpointRows[v*we.pairWords:(v+1)*we.pairWords])
}

// removeNodeFault is RemoveNodeFault with v known in range.
func (we *WalkEngine) removeNodeFault(v int) {
	if !we.nodeFault.Has(v) {
		return
	}
	we.nodeFault.Remove(v)
	we.rewalkRows(we.blockNodeRows[v*we.pairWords:(v+1)*we.pairWords],
		we.endpointRows[v*we.pairWords:(v+1)*we.pairWords])
}

// rewalkRow re-walks every pair set in the given item row. The row is
// snapshotted first because each re-walk mutates the live rows.
func (we *WalkEngine) rewalkRow(row []uint64) { we.rewalkRows(row, nil) }

// rewalkRows re-walks every pair set in the union of the two item rows
// (the second may be nil), snapshotting first because each re-walk
// mutates the live rows.
func (we *WalkEngine) rewalkRows(row, extra []uint64) {
	copy(we.scratch, row)
	for i, word := range extra {
		we.scratch[i] |= word
	}
	for wi, word := range we.scratch {
		base := wi << 6
		for word != 0 {
			p := base | bits.TrailingZeros64(word)
			word &= word - 1
			we.rewalk(int32(p))
		}
	}
}

// SetCuts replaces the current cut set with exactly the given links via
// symmetric-difference toggles, so consecutive similar sets stay cheap.
func (we *WalkEngine) SetCuts(cuts []routing.EdgeFault) {
	want := graph.NewBitset(we.m)
	for _, e := range cuts {
		if id, ok := we.edgeID[edgeKeyNorm(e.U, e.V)]; ok {
			want.Add(int(id))
		}
	}
	we.setCutIDs(want)
}

// setCutIDs is SetCuts over an edge-id bitset.
func (we *WalkEngine) setCutIDs(want *graph.Bitset) {
	for _, id := range we.cut.Elements() {
		if !want.Has(id) {
			we.removeCut(id)
		}
	}
	for _, id := range want.Elements() {
		we.addCut(id)
	}
}

// SetMixedFaults replaces the current mixed fault set with exactly the
// given failed nodes and cut links via symmetric-difference toggles, so
// consecutive similar sets stay cheap. Out-of-range nodes and unknown
// links are ignored.
func (we *WalkEngine) SetMixedFaults(nodes []int, cuts []routing.EdgeFault) {
	wantN := graph.NewBitset(we.n)
	for _, v := range nodes {
		if v >= 0 && v < we.n {
			wantN.Add(v)
		}
	}
	for _, v := range we.nodeFault.Elements() {
		if !wantN.Has(v) {
			we.removeNodeFault(v)
		}
	}
	for _, v := range wantN.Elements() {
		we.addNodeFault(v)
	}
	we.SetCuts(cuts)
}

// Reset repairs every cut link and every failed node.
func (we *WalkEngine) Reset() {
	for _, id := range we.cut.Elements() {
		we.removeCut(id)
	}
	for _, v := range we.nodeFault.Elements() {
		we.removeNodeFault(v)
	}
}

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
// its cached traversed, visited and blocked lists. Duplicate items (a
// loop walk's revisited node, an entry dead for two reasons) are
// harmless: set and clear are idempotent.
func (we *WalkEngine) indexPair(p int32, on bool) {
	w, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
	if on {
		for _, eid := range we.trav[p] {
			we.travRows[int(eid)*we.pairWords+w] |= bit
		}
		for _, eid := range we.blocked[p] {
			we.blockRows[int(eid)*we.pairWords+w] |= bit
		}
		for _, v := range we.visited[p] {
			we.visitRows[int(v)*we.pairWords+w] |= bit
		}
		for _, v := range we.blockedN[p] {
			we.blockNodeRows[int(v)*we.pairWords+w] |= bit
		}
		return
	}
	for _, eid := range we.trav[p] {
		we.travRows[int(eid)*we.pairWords+w] &^= bit
	}
	for _, eid := range we.blocked[p] {
		we.blockRows[int(eid)*we.pairWords+w] &^= bit
	}
	for _, v := range we.visited[p] {
		we.visitRows[int(v)*we.pairWords+w] &^= bit
	}
	for _, v := range we.blockedN[p] {
		we.blockNodeRows[int(v)*we.pairWords+w] &^= bit
	}
}

// entryOf returns pair p's entry index at node `at`, or -1. Entries of
// a pair are at-sorted, so this is a binary search of its run.
func (we *WalkEngine) entryOf(p, at int32) int32 {
	lo, hi := we.entOff[p], we.entOff[p+1]
	for lo < hi {
		mid := (lo + hi) >> 1
		if we.entAt[mid] < at {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < we.entOff[p+1] && we.entAt[lo] == at {
		return lo
	}
	return -1
}

// walk replays pair p's forwarding walk under the current mixed fault
// set, rebuilding its traversed, visited and blocked item lists, and
// returns the outcome. Semantics mirror FailoverTables.WalkUnderFaults
// — an entry is dead iff its link is cut or its target node is failed,
// the first live ranked entry is taken, Delivered on reaching dst,
// Blackhole when no live entry exists, Loop on a node revisit
// (epoch-stamped, allocation-free) — except that a failed src or dst
// yields Skipped: there is no packet to walk. An entry dead for both
// reasons records both, so repairing either one alone re-walks the
// pair (a no-op walk, but never a missed invalidation).
func (we *WalkEngine) walk(p int32) routing.Outcome {
	we.trav[p] = we.trav[p][:0]
	we.blocked[p] = we.blocked[p][:0]
	we.visited[p] = we.visited[p][:0]
	we.blockedN[p] = we.blockedN[p][:0]
	we.fails[p] = 0
	src, dst := we.pairU[p], we.pairV[p]
	if we.nodeFault.Has(int(src)) || we.nodeFault.Has(int(dst)) {
		return routing.Skipped
	}
	if src == dst {
		return routing.Delivered
	}
	we.epoch++
	we.stamp[src] = we.epoch
	at := src
	for {
		took, backup := int32(-1), false
		if e := we.entryOf(p, at); e >= 0 {
			for h := we.hopOff[e]; h < we.hopOff[e+1]; h++ {
				eid, nx := we.hopEdge[h], we.hops[h]
				dead := false
				if eid >= 0 && we.cut.Has(int(eid)) {
					we.blocked[p] = append(we.blocked[p], eid)
					dead = true
				}
				if we.nodeFault.Has(int(nx)) {
					we.blockedN[p] = append(we.blockedN[p], nx)
					dead = true
				}
				if dead {
					continue
				}
				took, backup = h, h > we.hopOff[e]
				break
			}
		}
		if took < 0 {
			return routing.Blackhole
		}
		if backup {
			we.fails[p]++
		}
		if eid := we.hopEdge[took]; eid >= 0 {
			we.trav[p] = append(we.trav[p], eid)
		}
		nx := we.hops[took]
		we.visited[p] = append(we.visited[p], nx)
		if nx == dst {
			return routing.Delivered
		}
		if we.stamp[nx] == we.epoch {
			return routing.Loop
		}
		we.stamp[nx] = we.epoch
		at = nx
	}
}
