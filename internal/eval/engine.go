package eval

import (
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// RouteSource is a routing whose fixed routes can be enumerated: the
// input of every search in this package. *routing.Routing and
// *routing.MultiRouting both satisfy it.
type RouteSource interface {
	Graph() *graph.Graph
	EachRoute(fn func(u, v int, p routing.Path))
}

// Engine evaluates surviving route graphs incrementally. It compiles a
// routing once into flat arrays and then maintains R(G,ρ)/F under
// single node- and edge-fault additions and removals, which is the
// access pattern of every fault-set search in this package (the
// exhaustive enumeration trees, the greedy adversaries and the
// concentrator adversaries all differ from their previous fault set by
// one node or one link).
//
// Compiled (immutable, shared between clones):
//
//   - an inverted index node → routes traversing it (CSR int32 arrays),
//     so a fault toggle touches only the routes it actually lies on
//     rather than re-scanning all n² routes;
//   - an inverted index edge → routes traversing it, over normalized
//     undirected edge ids (the graph's Edges() order), so an edge-fault
//     toggle is likewise proportional to the routes using the link;
//   - per-route → pair and per-pair route-count tables: an arc (u,v) of
//     the surviving graph is alive while at least one of the pair's
//     routes has zero faults (node or edge) on it.
//
// Mutable per-instance state:
//
//   - hits[r]: number of current faults on route r — faulty nodes the
//     route contains plus faulty edges it traverses;
//   - deadRoutes[p]: number of the pair's routes with hits > 0;
//   - adj: the live surviving graph as n rows of ⌈n/64⌉ uint64 words
//     (bit v of row u set iff arc u→v survives). Because every route
//     contains its endpoints, arcs incident to a faulty node die
//     automatically, so the rows never contain faulty nodes.
//
// Diameter and reachability run as word-parallel BFS over the bitrows:
// each level ORs the rows of the current frontier and masks out visited
// nodes, 64 nodes per machine word, allocation-free after construction.
//
// An Engine is not safe for concurrent use; use Clone to give each
// worker goroutine its own mutable state over the shared compiled form.
type Engine struct {
	n     int
	words int

	// Compiled form, shared (read-only) between clones.
	pairU, pairV []int32         // pair id -> arc endpoints
	pairRoutes   []int32         // pair id -> number of parallel routes
	routePair    []int32         // route id -> pair id
	idxOff       []int32         // node -> offset into idxRoutes (len n+1)
	idxRoutes    []int32         // concatenated route ids per node
	edgeU, edgeV []int32         // edge id -> endpoints (u < v), Edges() order
	edgeID       map[int64]int32 // normalized u<<32|v -> edge id
	eIdxOff      []int32         // edge -> offset into eIdxRoutes (len m+1)
	eIdxRoutes   []int32         // concatenated route ids per edge

	// Mutable fault state.
	hits            []int32 // route id -> faults (node+edge) currently on the route
	deadRoutes      []int32 // pair id -> routes with hits > 0
	deadRoutesTotal int     // routes with hits > 0, across all pairs
	adj             []uint64
	adjT            []uint64 // transposed bitrows: bit u of row v set iff arc u→v survives
	alive           []uint64 // bitrow of nonfaulty nodes
	faults          *graph.Bitset
	efaults         *graph.Bitset // faulty edge ids
	aliveCount      int
	alivePairs      int  // routed ordered pairs whose arc currently survives
	bounded         bool // score with the branch-and-bound kernel (Config.Bounded)

	// BFS scratch, reused across calls.
	bfs  *bfsScratch
	mask []uint64
	din  []int32       // pivot distances for diameterAbove, lazily sized
	pool []*bfsScratch // per-worker scratch for DiameterParallel, lazily grown
}

// bfsScratch is one worker's reusable frontier state for the
// word-parallel BFS kernels. Pooling these (instead of cloning whole
// engines) is what makes the per-source parallel diameter cheap: the
// compiled arrays and the live bitrows are shared read-only, and each
// worker carries only 3×⌈n/64⌉ words plus the decoded frontier list.
type bfsScratch struct {
	visited, cur, next []uint64
	frontier           []int32 // decoded frontier nodes for the tiled kernel
}

func newBFSScratch(words int) *bfsScratch {
	return &bfsScratch{
		visited: make([]uint64, words),
		cur:     make([]uint64, words),
		next:    make([]uint64, words),
	}
}

// blockedBFSWords gates the cache-blocked (column-tiled) frontier
// expansion: rows of at least this many words stream through the tiled
// kernel, everything smaller uses the flat kernel. At the default the
// switch happens near n = 64·1024 nodes — below that the whole
// next/visited frontier fits comfortably in L1/L2 and tiling only adds
// bookkeeping. Tests override the variable to force the tiled path on
// small graphs.
const blockedBFSWordsDefault = 1024

var blockedBFSWords = blockedBFSWordsDefault

// bfsTileWords is the column-tile width of the blocked kernel: each
// tile of the destination frontier (bfsTileWords×8 bytes) stays
// resident while every frontier row's matching slice streams over it.
const bfsTileWords = 512

// diamExtraPivots is the number of extra high-in-degree pivots the
// branch-and-bound diameter kernel adds to the first-alive pivot. Each
// costs 2 BFS per call; in exchange a hub pivot with small
// out-eccentricity certifies a skip for every one of its in-neighbors.
const diamExtraPivots = 4

// NewEngine compiles src into an incremental evaluation engine with an
// empty fault set.
func NewEngine(src RouteSource) *Engine {
	g := src.Graph()
	n := g.N()
	words := (n + 63) / 64
	e := &Engine{
		n:          n,
		words:      words,
		idxOff:     make([]int32, n+1),
		adj:        make([]uint64, n*words),
		adjT:       make([]uint64, n*words),
		faults:     graph.NewBitset(n),
		aliveCount: n,
		bfs:        newBFSScratch(words),
		mask:       make([]uint64, words),
	}
	edges := g.Edges()
	e.edgeID = make(map[int64]int32, len(edges))
	e.edgeU = make([]int32, len(edges))
	e.edgeV = make([]int32, len(edges))
	for id, ed := range edges {
		e.edgeU[id], e.edgeV[id] = int32(ed[0]), int32(ed[1])
		e.edgeID[edgeKey(ed[0], ed[1])] = int32(id)
	}
	e.efaults = graph.NewBitset(len(edges))
	e.eIdxOff = make([]int32, len(edges)+1)
	pairID := make(map[pairKey]int32)
	nodeCounts := make([]int32, n)
	edgeCounts := make([]int32, len(edges))
	// Pass 1: assign pair and route ids, count index entries per node
	// and per traversed edge.
	type flatRoute struct {
		pair  int32
		nodes []int
	}
	var routes []flatRoute
	src.EachRoute(func(u, v int, p routing.Path) {
		key := pairKey{u: int32(u), v: int32(v)}
		id, ok := pairID[key]
		if !ok {
			id = int32(len(e.pairU))
			pairID[key] = id
			e.pairU = append(e.pairU, int32(u))
			e.pairV = append(e.pairV, int32(v))
			e.pairRoutes = append(e.pairRoutes, 0)
			e.adj[u*words+v>>6] |= 1 << (uint(v) & 63)
			e.adjT[v*words+u>>6] |= 1 << (uint(u) & 63)
		}
		e.pairRoutes[id]++
		e.routePair = append(e.routePair, id)
		routes = append(routes, flatRoute{pair: id, nodes: []int(p)})
		for _, w := range p {
			nodeCounts[w]++
		}
		for i := 0; i+1 < len(p); i++ {
			if eid, ok := e.edgeID[edgeKey(p[i], p[i+1])]; ok {
				edgeCounts[eid]++
			}
		}
	})
	for v := 0; v < n; v++ {
		e.idxOff[v+1] = e.idxOff[v] + nodeCounts[v]
	}
	e.idxRoutes = make([]int32, e.idxOff[n])
	fill := make([]int32, n)
	copy(fill, e.idxOff[:n])
	for ed := range edges {
		e.eIdxOff[ed+1] = e.eIdxOff[ed] + edgeCounts[ed]
	}
	e.eIdxRoutes = make([]int32, e.eIdxOff[len(edges)])
	eFill := make([]int32, len(edges))
	copy(eFill, e.eIdxOff[:len(edges)])
	for r, fr := range routes {
		for _, w := range fr.nodes {
			e.idxRoutes[fill[w]] = int32(r)
			fill[w]++
		}
		for i := 0; i+1 < len(fr.nodes); i++ {
			if eid, ok := e.edgeID[edgeKey(fr.nodes[i], fr.nodes[i+1])]; ok {
				e.eIdxRoutes[eFill[eid]] = int32(r)
				eFill[eid]++
			}
		}
	}
	e.hits = make([]int32, len(e.routePair))
	e.deadRoutes = make([]int32, len(e.pairU))
	e.alivePairs = len(e.pairU)
	e.alive = make([]uint64, words)
	for v := 0; v < n; v++ {
		e.alive[v>>6] |= 1 << (uint(v) & 63)
	}
	return e
}

// edgeKey packs a normalized undirected edge into a map key.
func edgeKey(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// pairKey is shared with package routing's map key shape.
type pairKey = struct{ u, v int32 }

// Clone returns an independent engine sharing the compiled arrays but
// with its own fault state and scratch buffers, suitable for a worker
// goroutine. The clone starts with a copy of e's current fault set.
func (e *Engine) Clone() *Engine {
	c := *e
	c.hits = append([]int32(nil), e.hits...)
	c.deadRoutes = append([]int32(nil), e.deadRoutes...)
	c.adj = append([]uint64(nil), e.adj...)
	c.adjT = append([]uint64(nil), e.adjT...)
	c.alive = append([]uint64(nil), e.alive...)
	c.faults = e.faults.Clone()
	c.efaults = e.efaults.Clone()
	c.bfs = newBFSScratch(e.words)
	c.mask = make([]uint64, e.words)
	c.din = nil
	c.pool = nil
	return &c
}

// N returns the node count of the underlying graph.
func (e *Engine) N() int { return e.n }

// AliveCount returns the number of nonfaulty nodes.
func (e *Engine) AliveCount() int { return e.aliveCount }

// Faults returns a copy of the current fault set.
func (e *Engine) Faults() *graph.Bitset { return e.faults.Clone() }

// HasFault reports whether v is currently faulty.
func (e *Engine) HasFault(v int) bool { return e.faults.Has(v) }

// hitRoute records one more fault on route r, killing the pair's arc
// when its last live route dies.
func (e *Engine) hitRoute(r int32) {
	e.hits[r]++
	if e.hits[r] == 1 {
		e.deadRoutesTotal++
		p := e.routePair[r]
		e.deadRoutes[p]++
		if e.deadRoutes[p] == e.pairRoutes[p] {
			u, w := e.pairU[p], e.pairV[p]
			e.adj[int(u)*e.words+int(w)>>6] &^= 1 << (uint(w) & 63)
			e.adjT[int(w)*e.words+int(u)>>6] &^= 1 << (uint(u) & 63)
			e.alivePairs--
		}
	}
}

// unhitRoute removes one fault from route r, reviving the pair's arc
// when the route becomes the pair's first live one again.
func (e *Engine) unhitRoute(r int32) {
	e.hits[r]--
	if e.hits[r] == 0 {
		e.deadRoutesTotal--
		p := e.routePair[r]
		e.deadRoutes[p]--
		if e.deadRoutes[p] == e.pairRoutes[p]-1 {
			u, w := e.pairU[p], e.pairV[p]
			e.adj[int(u)*e.words+int(w)>>6] |= 1 << (uint(w) & 63)
			e.adjT[int(w)*e.words+int(u)>>6] |= 1 << (uint(u) & 63)
			e.alivePairs++
		}
	}
}

// AddFault marks v faulty, incrementally killing every surviving arc
// whose last live route traverses v. Adding an already-faulty or
// out-of-range node is a no-op. Cost is proportional to the number of
// routes through v, not to the routing size.
func (e *Engine) AddFault(v int) {
	if v < 0 || v >= e.n || e.faults.Has(v) {
		return
	}
	e.faults.Add(v)
	e.aliveCount--
	e.alive[v>>6] &^= 1 << (uint(v) & 63)
	for _, r := range e.idxRoutes[e.idxOff[v]:e.idxOff[v+1]] {
		e.hitRoute(r)
	}
}

// RemoveFault unmarks v, reviving every arc that regains a live route.
// Removing a non-faulty node is a no-op.
func (e *Engine) RemoveFault(v int) {
	if v < 0 || v >= e.n || !e.faults.Has(v) {
		return
	}
	e.faults.Remove(v)
	e.aliveCount++
	e.alive[v>>6] |= 1 << (uint(v) & 63)
	for _, r := range e.idxRoutes[e.idxOff[v]:e.idxOff[v+1]] {
		e.unhitRoute(r)
	}
}

// AddEdgeFault marks the undirected link {u, v} faulty, incrementally
// killing every surviving arc whose last live route traverses the edge.
// Endpoint order is irrelevant. Self-loops, already-faulty edges and
// pairs that are not edges of the underlying graph are no-ops (no route
// can traverse them, matching SurvivingGraphMixed's literal semantics).
// Edge faults never change the alive node count. Cost is proportional
// to the number of routes over the edge.
func (e *Engine) AddEdgeFault(u, v int) {
	if id, ok := e.edgeIDOf(u, v); ok {
		e.toggleEdge(id, true)
	}
}

// RemoveEdgeFault unmarks the link {u, v}, reviving every arc that
// regains a live route. Removing a non-faulty edge is a no-op.
func (e *Engine) RemoveEdgeFault(u, v int) {
	if id, ok := e.edgeIDOf(u, v); ok {
		e.toggleEdge(id, false)
	}
}

// toggleEdge adds (on) or removes the fault on edge id; repeating the
// current state is a no-op.
func (e *Engine) toggleEdge(id int, on bool) {
	if e.efaults.Has(id) == on {
		return
	}
	routes := e.eIdxRoutes[e.eIdxOff[id]:e.eIdxOff[id+1]]
	if on {
		e.efaults.Add(id)
		for _, r := range routes {
			e.hitRoute(r)
		}
		return
	}
	e.efaults.Remove(id)
	for _, r := range routes {
		e.unhitRoute(r)
	}
}

// edgeIDOf resolves the normalized edge id of {u, v}, reporting false
// for self-loops and non-edges.
func (e *Engine) edgeIDOf(u, v int) (int, bool) {
	if u == v || u < 0 || v < 0 || u >= e.n || v >= e.n {
		return 0, false
	}
	id, ok := e.edgeID[edgeKey(u, v)]
	return int(id), ok
}

// HasEdgeFault reports whether the link {u, v} is currently faulty.
func (e *Engine) HasEdgeFault(u, v int) bool {
	id, ok := e.edgeIDOf(u, v)
	return ok && e.efaults.Has(id)
}

// EdgeFaults returns the current edge-fault set as normalized
// (U < V) faults in the graph's lexicographic edge order.
func (e *Engine) EdgeFaults() []routing.EdgeFault {
	ids := e.efaults.Elements()
	out := make([]routing.EdgeFault, len(ids))
	for i, id := range ids {
		out[i] = routing.EdgeFault{U: int(e.edgeU[id]), V: int(e.edgeV[id])}
	}
	return out
}

// EdgeFaultCount returns the number of faulty edges.
func (e *Engine) EdgeFaultCount() int { return e.efaults.Count() }

// DeadRouteCount returns the number of routes with at least one fault
// (node or edge) on them. It is the engine's measure of how much damage
// the current fault set does to the routing, independent of which arcs
// happen to survive via parallel routes.
func (e *Engine) DeadRouteCount() int { return e.deadRoutesTotal }

// Reset removes all node and edge faults.
func (e *Engine) Reset() {
	for _, v := range e.faults.Elements() {
		e.RemoveFault(v)
	}
	for _, id := range e.efaults.Elements() {
		e.toggleEdge(id, false)
	}
}

// SetFaults replaces the current node-fault set with b (nil means
// empty), applying only the symmetric difference incrementally. Edge
// faults are left untouched.
func (e *Engine) SetFaults(b *graph.Bitset) {
	for _, v := range e.faults.Elements() {
		if !b.Has(v) {
			e.RemoveFault(v)
		}
	}
	if b == nil {
		return
	}
	for _, v := range b.Elements() {
		e.AddFault(v) // no-op for already-faulty nodes
	}
}

// SetMixedFaults replaces both fault sets (nil/empty mean empty),
// applying only the differences incrementally. Unknown or self-loop
// edges in the list are ignored.
func (e *Engine) SetMixedFaults(nodes *graph.Bitset, edges []routing.EdgeFault) {
	e.SetFaults(nodes)
	want := graph.NewBitset(len(e.edgeU))
	for _, ef := range edges {
		if id, ok := e.edgeIDOf(ef.U, ef.V); ok {
			want.Add(id)
		}
	}
	for _, id := range e.efaults.Elements() {
		if !want.Has(id) {
			e.toggleEdge(id, false)
		}
	}
	for _, id := range want.Elements() {
		e.toggleEdge(id, true)
	}
}

// eccentricity runs a word-parallel BFS from src over the live
// adjacency bitrows. It returns the number of levels needed to reach
// every alive node, or (0, false) if some alive node is unreachable.
// With bound >= 0 it gives up as soon as the eccentricity is known to
// exceed bound (returning false); bound < 0 means unbounded.
func (e *Engine) eccentricity(src, bound int) (int, bool) {
	return e.eccentricityMasked(src, bound, nil, e.aliveCount)
}

// eccentricityMasked is eccentricity restricted to the nodes whose mask
// bit is set (nil mask means all nodes): masked-out nodes are neither
// reached nor expanded, so they cannot serve as relays, and target is
// the number of mask-allowed alive nodes that must be covered.
func (e *Engine) eccentricityMasked(src, bound int, mask []uint64, target int) (int, bool) {
	return e.eccentricityOn(e.adj, src, bound, mask, target, e.bfs)
}

// eccentricityOn is the BFS kernel underneath every diameter path: it
// runs over the given bitrows (e.adj forward, e.adjT for reverse
// distances) using the caller's scratch, so source-parallel diameter
// workers can share the read-only rows with one bfsScratch each.
func (e *Engine) eccentricityOn(rows []uint64, src, bound int, mask []uint64, target int, s *bfsScratch) (int, bool) {
	visited, cur, next := s.visited, s.cur, s.next
	for i := range visited {
		visited[i] = 0
		cur[i] = 0
	}
	visited[src>>6] = 1 << (uint(src) & 63)
	cur[src>>6] = visited[src>>6]
	covered := 1
	ecc := 0
	for covered < target {
		if bound >= 0 && ecc == bound {
			return 0, false
		}
		e.expandFrontier(rows, cur, next, s)
		fresh := 0
		for i := range next {
			nw := next[i] &^ visited[i]
			if mask != nil {
				nw &= mask[i]
			}
			next[i] = nw
			visited[i] |= nw
			fresh += bits.OnesCount64(nw)
		}
		if fresh == 0 {
			return 0, false
		}
		ecc++
		covered += fresh
		cur, next = next, cur
	}
	return ecc, true
}

// expandFrontier ORs the rows of every frontier node into next
// (clearing it first). Small graphs take the flat kernel; once rows
// reach blockedBFSWords the column-tiled kernel streams them through
// cache instead.
func (e *Engine) expandFrontier(rows, cur, next []uint64, s *bfsScratch) {
	words := e.words
	for i := range next {
		next[i] = 0
	}
	if words >= blockedBFSWords {
		e.expandFrontierTiled(rows, cur, next, s)
		return
	}
	for wi := 0; wi < words; wi++ {
		w := cur[wi]
		base := wi << 6
		for w != 0 {
			u := base | bits.TrailingZeros64(w)
			w &= w - 1
			row := rows[u*words : (u+1)*words]
			for i, rw := range row {
				next[i] |= rw
			}
		}
	}
}

// expandFrontierTiled is the cache-blocked frontier expansion: the
// frontier is decoded once into a node list, then each column tile of
// next stays resident while the matching slice of every frontier row
// streams over it — instead of each full-width row evicting the
// accumulator on big n.
func (e *Engine) expandFrontierTiled(rows, cur, next []uint64, s *bfsScratch) {
	words := e.words
	s.frontier = s.frontier[:0]
	for wi := 0; wi < words; wi++ {
		w := cur[wi]
		base := wi << 6
		for w != 0 {
			s.frontier = append(s.frontier, int32(base|bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	for t := 0; t < words; t += bfsTileWords {
		hi := t + bfsTileWords
		if hi > words {
			hi = words
		}
		dst := next[t:hi]
		for _, u := range s.frontier {
			row := rows[int(u)*words+t : int(u)*words+hi]
			for i, rw := range row {
				dst[i] |= rw
			}
		}
	}
}

// Diameter returns the directed diameter of the current surviving route
// graph over the nonfaulty nodes, and true; or (0, false) if some
// nonfaulty node cannot reach some other nonfaulty node. At most one
// alive node yields diameter 0, matching Digraph.Diameter.
func (e *Engine) Diameter() (int, bool) {
	diam := 0
	for u := 0; u < e.n; u++ {
		if e.faults.Has(u) {
			continue
		}
		ecc, ok := e.eccentricity(u, -1)
		if !ok {
			return 0, false
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, true
}

// reverseDistances runs a word-parallel BFS toward dst over the
// transposed bitrows, writing d(v, dst) into din (-1 for faulty or
// unreachable nodes) and returning the number of alive nodes reached,
// dst included. Because arcs incident to faulty nodes are dead in both
// bitrow sets, only alive nodes are ever reached.
func (e *Engine) reverseDistances(dst int, din []int32) int {
	for i := 0; i < e.n; i++ {
		din[i] = -1
	}
	s := e.bfs
	visited, cur, next := s.visited, s.cur, s.next
	for i := range visited {
		visited[i] = 0
		cur[i] = 0
	}
	visited[dst>>6] = 1 << (uint(dst) & 63)
	cur[dst>>6] = visited[dst>>6]
	din[dst] = 0
	covered := 1
	for level := int32(1); ; level++ {
		e.expandFrontier(e.adjT, cur, next, s)
		fresh := 0
		for i := range next {
			nw := next[i] &^ visited[i]
			next[i] = nw
			visited[i] |= nw
			base := i << 6
			for w := nw; w != 0; w &= w - 1 {
				din[base|bits.TrailingZeros64(w)] = level
				fresh++
			}
		}
		if fresh == 0 {
			return covered
		}
		covered += fresh
		cur, next = next, cur
	}
}

// firstAlive returns the smallest nonfaulty node, or -1 if none.
func (e *Engine) firstAlive() int {
	for v := 0; v < e.n; v++ {
		if !e.faults.Has(v) {
			return v
		}
	}
	return -1
}

// diameterAbove is the branch-and-bound diameter kernel: it decides
// whether the surviving diameter exceeds bound, reporting
// (diam, above, connected). When above is true, diam is the exact
// diameter; when above is false the diameter is only known to be at
// most bound and diam is unspecified. connected false matches
// Diameter()'s (0, false) exactly.
//
// Instead of one BFS per source, it works through a handful of pivots:
// the first alive node u plus up to diamExtraPivots alive nodes of
// maximal in-degree. Each pivot p gets a forward BFS (exact eccOut(p))
// and a reverse BFS over the transposed bitrows (every node's distance
// to p). Disconnection detection is exact — every alive pair connects
// through u iff u's two BFS cover all alive nodes. Any other source v
// has ecc(v) ≤ min_p(d(v,p) + eccOut(p)) by the triangle inequality,
// so sources whose upper bound cannot beat max(bound, runningMax) are
// skipped without a BFS; the rest get exact eccentricities. A skipped
// source can never hold a value above the returned maximum, which
// keeps the exact-when-above contract.
//
// High-in-degree pivots are what make this effective on the paper
// constructions: their route graphs are hub-and-spoke (a hub with
// in-degree k and out-eccentricity 2 certifies ecc ≤ 3 for all k of
// its in-neighbors at once), so once the enumeration's incumbent
// reaches hubEcc+1, nearly every source is skipped and a fault set
// costs ~2·(1+diamExtraPivots) BFS instead of n.
//
// The caller must ensure at least one alive node exists.
//
// On dense surviving graphs — route graphs of total routings are
// complete digraphs minus the arcs the faults killed — the triangle
// bound cannot prune (every eccentricity ties the tiny diameter), so
// the kernel dispatches to the complement-scan variant whenever at
// least 7/8 of the alive ordered pairs still carry an arc.
func (e *Engine) diameterAbove(bound int) (int, bool, bool) {
	if a := e.aliveCount; a > 2 {
		if dead := a*(a-1) - e.alivePairs; dead >= 0 && dead*8 <= a*(a-1) {
			return e.diameterAboveDense(bound)
		}
	}
	u := e.firstAlive()
	eccOut, ok := e.eccentricity(u, -1)
	if !ok {
		return 0, false, false
	}
	if len(e.din) < e.n*(1+diamExtraPivots) {
		e.din = make([]int32, e.n*(1+diamExtraPivots))
	}
	din := e.din[:e.n]
	if e.reverseDistances(u, din) < e.aliveCount {
		return 0, false, false
	}
	worst := eccOut

	// Hub pivots: alive nodes of maximal in-degree, excluding u. The
	// graph is connected from here on, so their BFS always cover.
	var hubs [diamExtraPivots]int
	var hubEcc [diamExtraPivots]int
	var hubDin [diamExtraPivots][]int32
	var hubDeg [diamExtraPivots]int
	nHubs := 0
	for i, aw := range e.alive {
		base := i << 6
		for w := aw; w != 0; w &= w - 1 {
			v := base | bits.TrailingZeros64(w)
			if v == u {
				continue
			}
			deg := 0
			for _, tw := range e.adjT[v*e.words : (v+1)*e.words] {
				deg += bits.OnesCount64(tw)
			}
			j := nHubs
			if j < diamExtraPivots {
				nHubs++
			} else if deg <= hubDeg[j-1] {
				continue
			} else {
				j--
			}
			for ; j > 0 && deg > hubDeg[j-1]; j-- {
				hubs[j], hubEcc[j], hubDeg[j] = hubs[j-1], hubEcc[j-1], hubDeg[j-1]
			}
			hubs[j], hubDeg[j] = v, deg
		}
	}
	for h := 0; h < nHubs; h++ {
		ecc, ok := e.eccentricity(hubs[h], -1)
		if !ok {
			return 0, false, false
		}
		hubEcc[h] = ecc
		if ecc > worst {
			worst = ecc
		}
		hubDin[h] = e.din[(1+h)*e.n : (2+h)*e.n]
		e.reverseDistances(hubs[h], hubDin[h])
	}

	for v := 0; v < e.n; v++ {
		if v == u || e.faults.Has(v) {
			continue
		}
		limit := worst
		if bound > limit {
			limit = bound
		}
		ub := int(din[v]) + eccOut
		for h := 0; h < nHubs && ub > limit; h++ {
			if v == hubs[h] {
				ub = hubEcc[h] // already exact, counted above
				break
			}
			if d := hubDin[h][v]; d >= 0 && int(d)+hubEcc[h] < ub {
				ub = int(d) + hubEcc[h]
			}
		}
		if ub <= limit {
			continue
		}
		ecc, ok := e.eccentricity(v, -1)
		if !ok {
			return 0, false, false
		}
		if ecc > worst {
			worst = ecc
		}
	}
	if worst > bound {
		return worst, true, true
	}
	return 0, false, true
}

// diameterAboveDense is the complement-scan diameter kernel for dense
// surviving graphs, with the same contract as diameterAbove. When
// nearly every alive ordered pair still carries an arc, the diameter is
// determined by the few dead pairs: an alive arc contributes distance
// 1, and a dead pair (s, t) has distance 2 iff s's out-row intersects
// t's in-row (a surviving common intermediate). The kernel enumerates
// only the dead pairs — which the incremental engine gets for free as
// the complement of the live bitrows — certifying each at distance 2
// with a short word-AND instead of a BFS. A source with a farther
// target falls back to one exact BFS, which also settles
// disconnection; sources whose dead targets all sit at distance 2
// prove their own coverage. The result is always the exact diameter
// (bound only shapes the verdict), so bit-identity with Diameter() is
// structural. Cost is O(deadArcs·words) instead of n BFS — on the
// CCC(7) circular anchor under one fault that is ~12k word-scans
// against 896 full BFS.
func (e *Engine) diameterAboveDense(bound int) (int, bool, bool) {
	words := e.words
	worst := 0
	for i, aw := range e.alive {
		base := i << 6
		for w := aw; w != 0; w &= w - 1 {
			s := base | bits.TrailingZeros64(w)
			row := e.adj[s*words : (s+1)*words]
			ecc := 1
		targets:
			for j, av := range e.alive {
				dw := av &^ row[j]
				if j == s>>6 {
					dw &^= 1 << (uint(s) & 63)
				}
				for ; dw != 0; dw &= dw - 1 {
					t := j<<6 | bits.TrailingZeros64(dw)
					trow := e.adjT[t*words : (t+1)*words]
					hop := false
					for k := range row {
						if row[k]&trow[k] != 0 {
							hop = true
							break
						}
					}
					if !hop {
						full, ok := e.eccentricity(s, -1)
						if !ok {
							return 0, false, false
						}
						ecc = full
						break targets
					}
					ecc = 2
				}
			}
			if ecc > worst {
				worst = ecc
			}
		}
	}
	if worst > bound {
		return worst, true, true
	}
	return 0, false, true
}

// DiameterParallel is Diameter with the per-source BFS loop spread over
// worker goroutines. The pivot pruning of diameterAbove applies first —
// two BFS fix the pivot's eccentricity and every node's distance to it —
// and the surviving sources are stolen from a shared counter by workers
// that share the read-only bitrows, pooled per-worker frontier scratch,
// and an atomic running maximum feeding the skip test. The result is
// deterministic and equal to Diameter(): the maximum is order-
// independent and skipped sources are provably below it. workers <= 0
// uses GOMAXPROCS.
func (e *Engine) DiameterParallel(workers int) (int, bool) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if e.aliveCount <= 1 {
		return e.Diameter()
	}
	if workers == 1 {
		d, _, conn := e.diameterAbove(-1)
		if !conn {
			return 0, false
		}
		return d, true
	}
	u := e.firstAlive()
	eccOut, ok := e.eccentricity(u, -1)
	if !ok {
		return 0, false
	}
	if len(e.din) < e.n {
		e.din = make([]int32, e.n)
	}
	if e.reverseDistances(u, e.din[:e.n]) < e.aliveCount {
		return 0, false
	}
	for len(e.pool) < workers {
		e.pool = append(e.pool, newBFSScratch(e.words))
	}
	var maxEcc atomic.Int64
	maxEcc.Store(int64(eccOut))
	var disc atomic.Bool
	var nextSrc atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(s *bfsScratch) {
			defer wg.Done()
			for {
				v := int(nextSrc.Add(1)) - 1
				if v >= e.n || disc.Load() {
					return
				}
				if v == u || e.faults.Has(v) {
					continue
				}
				if int(e.din[v])+eccOut <= int(maxEcc.Load()) {
					continue
				}
				ecc, ok := e.eccentricityOn(e.adj, v, -1, nil, e.aliveCount, s)
				if !ok {
					disc.Store(true)
					return
				}
				casMax(&maxEcc, int64(ecc))
			}
		}(e.pool[w])
	}
	wg.Wait()
	if disc.Load() {
		return 0, false
	}
	return int(maxEcc.Load()), true
}

// DiameterExcluding returns the diameter of the current surviving route
// graph restricted to the alive nodes outside excluded: excluded nodes
// are not sources, destinations or relays, exactly as if they were
// disabled in a materialized Digraph — but without losing the routes
// that pass through them. It returns (0, false) when some included node
// cannot reach another included one. This is the measurement the
// paper's edge-fault reduction asks for: literal mixed-fault arcs,
// diameter over the nodes alive under the endpoint mapping.
func (e *Engine) DiameterExcluding(excluded *graph.Bitset) (int, bool) {
	if excluded == nil || excluded.Count() == 0 {
		return e.Diameter()
	}
	for i := range e.mask {
		e.mask[i] = ^uint64(0)
	}
	target := e.aliveCount
	for _, v := range excluded.Elements() {
		if v >= e.n {
			continue
		}
		e.mask[v>>6] &^= 1 << (uint(v) & 63)
		if !e.faults.Has(v) {
			target--
		}
	}
	diam := 0
	for u := 0; u < e.n; u++ {
		if e.faults.Has(u) || excluded.Has(u) {
			continue
		}
		ecc, ok := e.eccentricityMasked(u, -1, e.mask, target)
		if !ok {
			return 0, false
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam, true
}

// DiameterAtMost reports whether the surviving diameter is at most
// bound, stopping at the first source whose BFS either exceeds bound
// levels or cannot cover the alive nodes (disconnection exceeds every
// bound). It is the early-exit path used by tolerance checking: a
// passing check still scans all sources, but a violated bound is
// detected without completing the diameter computation.
func (e *Engine) DiameterAtMost(bound int) bool {
	if bound < 0 {
		bound = 0
	}
	for u := 0; u < e.n; u++ {
		if e.faults.Has(u) {
			continue
		}
		if _, ok := e.eccentricity(u, bound); !ok {
			return false
		}
	}
	return true
}

// DistancesFrom writes into dist (length at least N) the hop distance
// from src to every node in the current surviving route graph, with
// graph.Unreachable marking unreachable or faulty nodes. It mirrors
// Digraph.BFSDistances on the surviving graph but runs word-parallel
// and allocation-free.
func (e *Engine) DistancesFrom(src int, dist []int) {
	for i := 0; i < e.n; i++ {
		dist[i] = graph.Unreachable
	}
	if src < 0 || src >= e.n || e.faults.Has(src) {
		return
	}
	s := e.bfs
	visited, cur, next := s.visited, s.cur, s.next
	for i := range visited {
		visited[i] = 0
		cur[i] = 0
	}
	visited[src>>6] = 1 << (uint(src) & 63)
	cur[src>>6] = visited[src>>6]
	dist[src] = 0
	for level := 1; ; level++ {
		e.expandFrontier(e.adj, cur, next, s)
		fresh := 0
		for i := range next {
			nw := next[i] &^ visited[i]
			next[i] = nw
			visited[i] |= nw
			if nw != 0 {
				base := i << 6
				for nw != 0 {
					dist[base|bits.TrailingZeros64(nw)] = level
					nw &= nw - 1
					fresh++
				}
			}
		}
		if fresh == 0 {
			return
		}
		cur, next = next, cur
	}
}

// HasArc reports whether the arc u→v currently survives.
func (e *Engine) HasArc(u, v int) bool {
	if u < 0 || u >= e.n || v < 0 || v >= e.n {
		return false
	}
	return e.adj[u*e.words+v>>6]&(1<<(uint(v)&63)) != 0
}

// disconnected is the Engine score of a fault set that leaves some
// alive node unable to reach another: it beats every diameter and is
// final.
const disconnected = math.MaxInt

// The evaluator contract of the search driver. Scores are 0 when fewer
// than two nodes are alive (nothing to route between), the diameter
// (at least 1) otherwise, and disconnected.

func (e *Engine) toggle(item int, on bool) {
	switch {
	case item < e.n && on:
		e.AddFault(item)
	case item < e.n:
		e.RemoveFault(item)
	case item-e.n < len(e.edgeU):
		e.toggleEdge(item-e.n, on)
	}
}

func (e *Engine) clone() *Engine { return e.Clone() }

func (e *Engine) reset() { e.Reset() }

// score computes the exact diameter, or with bounded set decides it
// with diameterAbove against max(bound, tie−1): the threshold keeps
// ties with tie exact, and a set at or below it scores 0.
func (e *Engine) score(bound, tie int) int {
	if e.aliveCount <= 1 {
		return 0
	}
	if !e.bounded {
		if d, ok := e.Diameter(); ok {
			return d
		}
		return disconnected
	}
	d, above, connected := e.diameterAbove(max(bound, tie-1))
	switch {
	case !connected:
		return disconnected
	case above:
		return d
	}
	return 0
}

func (e *Engine) better(a, b int) bool { return a > b }

func (e *Engine) final(s int) bool { return s == disconnected }
