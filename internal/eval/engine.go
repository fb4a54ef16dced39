package eval

import (
	"math"
	"math/bits"
	"slices"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// RouteSource is a routing whose fixed routes can be enumerated: the
// input of every search in this package. *routing.Routing and
// *routing.MultiRouting both satisfy it. EachRoute must enumerate the
// same routes, in any order, each time it is called: NewEngine calls it
// twice.
type RouteSource interface {
	Graph() *graph.Graph
	EachRoute(fn func(u, v int, p routing.Path))
}

// Engine evaluates surviving route graphs incrementally. It compiles a
// routing once into flat arrays and then maintains R(G,ρ)/F under
// single fault additions and removals, which is the access pattern of
// every fault-set search in this package (the exhaustive enumeration
// trees, the greedy adversaries and the concentrator adversaries all
// differ from their previous fault set by one item).
//
// A fault is an item of the nodes-then-links id space: node v is item
// v, link i of the graph's Edges() is item n+i. One rule covers both
// kinds: a route dies while it holds a faulty item, as a node it
// contains or a link it traverses, and an arc (u,v) of the surviving
// graph is alive while at least one of the pair's routes is.
//
// Compiled (immutable, shared between clones):
//
//   - an inverted index item → routes holding it (CSR int32 arrays), so
//     a toggle touches only the routes it actually lies on rather than
//     re-scanning all n² routes;
//   - one record per route (routeArc): the bit positions of its pair's
//     arc in adj and adjT, and the slot of the pair's live counter when
//     the pair has several routes, −1 when the route is its only one;
//   - the graph's item numbering (graph.Items).
//
// Mutable per-instance state:
//
//   - faults: the faulty items;
//   - hits[r]: number of faulty items on route r;
//   - live[s]: number of routes with hits = 0 of the pair in slot s,
//     one slot per pair with several routes (empty for a Routing);
//   - adj: the live surviving graph as n rows of ⌈n/64⌉ uint64 words
//     (bit v of row u set iff arc u→v survives). Because every route
//     contains its endpoints, arcs incident to a faulty node die
//     automatically, so the rows never contain faulty nodes.
//
// Diameter and reachability run as word-parallel BFS over the bitrows:
// each level ORs the rows of the current frontier and masks out visited
// nodes, 64 nodes per machine word, allocation-free after construction.
// A level stops as soon as the rows ORed so far cover every remaining
// target (see expand).
//
// An Engine is not safe for concurrent use; use Clone to give each
// worker goroutine its own mutable state over the shared compiled form.
type Engine struct {
	n     int
	words int

	// Compiled form, shared (read-only) between clones.
	routes     []routeArc // route id -> its pair's arc and live slot
	itemOff    []int32    // item -> offset into itemRoutes (len n+m+1)
	itemRoutes []int32    // concatenated route ids per item
	items      *graph.Items
	hubs       []int32 // nodes by decreasing fault-free in-degree, ties to the lower id

	// Mutable fault state.
	faults          *graph.Bitset // faulty items
	hits            []int32       // route id -> faulty items on the route
	live            []int32       // live slot -> routes with hits = 0
	deadRoutesTotal int           // routes with hits > 0, across all pairs
	adj             []uint64
	adjT            []uint64 // transposed bitrows: bit u of row v set iff arc u→v survives
	alive           []uint64 // bitrow of nonfaulty nodes
	aliveCount      int
	alivePairs      int // routed ordered pairs whose arc currently survives

	// BFS scratch, reused across calls.
	bfs  *bfsScratch
	mask []uint64
	skip []uint64 // sources diameterAbove's pivots certify (see skipSet)
	far  []uint64 // row h: the alive nodes at distance ecc(pivot h) from it (see pivot)
}

// bfsScratch is the reusable frontier state of the word-parallel BFS:
// the visited, current and next levels, ⌈n/64⌉ words each.
type bfsScratch struct {
	visited, cur, next []uint64
}

func newBFSScratch(words int) *bfsScratch {
	return &bfsScratch{
		visited: make([]uint64, words),
		cur:     make([]uint64, words),
		next:    make([]uint64, words),
	}
}

// diamExtraPivots is the number of extra high-in-degree pivots the
// branch-and-bound diameter kernel adds to the first-alive pivot. Each
// costs one BFS per call; in exchange a hub pivot whose out-eccentricity
// sits one below the limit certifies a skip for every one of its
// in-neighbors, and hubs at the limit certify their shared in-neighbors
// (see skipSet).
const diamExtraPivots = 4

// NewEngine compiles src into an incremental evaluation engine with an
// empty fault set. It enumerates the routes twice, so it keeps no copy
// of them between its two passes.
func NewEngine(src RouteSource) *Engine {
	g := src.Graph()
	n := g.N()
	words := (n + 63) / 64
	ix := graph.NewItems(g)
	items := n + ix.M()
	e := &Engine{
		n:          n,
		words:      words,
		itemOff:    make([]int32, items+1),
		items:      ix,
		faults:     graph.NewBitset(items),
		adj:        make([]uint64, n*words),
		adjT:       make([]uint64, n*words),
		aliveCount: n,
		bfs:        newBFSScratch(words),
		mask:       make([]uint64, words),
		skip:       make([]uint64, words),
		far:        make([]uint64, (1+diamExtraPivots)*words),
	}
	// Pass 1: count the routes, set each pair's arc, give a pair seen a
	// second time a live slot, and count the routes of each item (its
	// nodes, then the links between consecutive nodes) one slot to the
	// right, so the prefix sums below are the offsets.
	routes := 0
	slots := make(map[uint64]int32) // arc position in adj -> live slot, for pairs with several routes
	src.EachRoute(func(u, v int, p routing.Path) {
		routes++
		if fwd, bwd := arcBit(u, v, words), arcBit(v, u, words); e.adj[fwd>>6]&(1<<(fwd&63)) == 0 {
			e.adj[fwd>>6] |= 1 << (fwd & 63)
			e.adjT[bwd>>6] |= 1 << (bwd & 63)
			e.alivePairs++
		} else if _, ok := slots[fwd]; !ok {
			slots[fwd] = int32(len(slots))
		}
		for _, w := range p {
			e.itemOff[w+1]++
		}
		for i := 0; i+1 < len(p); i++ {
			if it, ok := ix.Link(p[i], p[i+1]); ok {
				e.itemOff[it+1]++
			}
		}
	})
	for it := 0; it < items; it++ {
		e.itemOff[it+1] += e.itemOff[it]
	}
	e.itemRoutes = make([]int32, e.itemOff[items])
	fill := append([]int32(nil), e.itemOff[:items]...)
	e.routes = make([]routeArc, 0, routes)
	e.hits = make([]int32, routes)
	e.live = make([]int32, len(slots))
	// Pass 2: number the routes in the order of a second enumeration,
	// compile each one's record and list it under its items.
	src.EachRoute(func(u, v int, p routing.Path) {
		r := int32(len(e.routes))
		arc := routeArc{fwd: arcBit(u, v, words), bwd: arcBit(v, u, words), shared: -1}
		if s, ok := slots[arc.fwd]; ok {
			arc.shared = s
			e.live[s]++
		}
		e.routes = append(e.routes, arc)
		for _, w := range p {
			e.itemRoutes[fill[w]] = r
			fill[w]++
		}
		for i := 0; i+1 < len(p); i++ {
			if it, ok := ix.Link(p[i], p[i+1]); ok {
				e.itemRoutes[fill[it]] = r
				fill[it]++
			}
		}
	})
	e.alive = make([]uint64, words)
	indeg := make([]int, n)
	e.hubs = make([]int32, n)
	for v := 0; v < n; v++ {
		e.alive[v>>6] |= 1 << (uint(v) & 63)
		for _, tw := range e.adjT[v*words : (v+1)*words] {
			indeg[v] += bits.OnesCount64(tw)
		}
		e.hubs[v] = int32(v)
	}
	slices.SortStableFunc(e.hubs, func(a, b int32) int { return indeg[b] - indeg[a] })
	return e
}

// routeArc is a route's compiled record: fwd and bwd are the bit
// positions of its pair's arc u→v in adj and adjT (see arcBit), and
// shared is the slot of the pair's live counter, or −1 when the route
// is its pair's only one.
type routeArc struct {
	fwd, bwd uint64
	shared   int32
}

// arcBit is the position of bit v of row u in bitrows of words words
// each: u·64·words + v, computed in 64 bits so no node count overflows.
func arcBit(u, v, words int) uint64 { return uint64(u)*64*uint64(words) + uint64(v) }

// Clone returns an independent engine sharing the compiled arrays but
// with its own fault state and scratch buffers, suitable for a worker
// goroutine. The clone starts with a copy of e's current fault set.
func (e *Engine) Clone() *Engine {
	c := *e
	c.faults = e.faults.Clone()
	c.hits = append([]int32(nil), e.hits...)
	c.live = append([]int32(nil), e.live...)
	c.adj = append([]uint64(nil), e.adj...)
	c.adjT = append([]uint64(nil), e.adjT...)
	c.alive = append([]uint64(nil), e.alive...)
	c.bfs = newBFSScratch(e.words)
	c.mask = make([]uint64, e.words)
	c.skip = make([]uint64, e.words)
	c.far = make([]uint64, len(e.far))
	return &c
}

// N returns the node count of the underlying graph.
func (e *Engine) N() int { return e.n }

// AliveCount returns the number of nonfaulty nodes.
func (e *Engine) AliveCount() int { return e.aliveCount }

// Faults returns a copy of the current node-fault set.
func (e *Engine) Faults() *graph.Bitset {
	nodes, _ := split(e.items, e.faults.Elements())
	return graph.BitsetOf(e.n, nodes...)
}

// HasFault reports whether v is currently faulty.
func (e *Engine) HasFault(v int) bool { return v < e.n && e.faults.Has(v) }

// toggle adds (on) or removes the fault on one item; a node item also
// flips its alive bit. Each route that holds the item counts it in
// hits; a route whose first fault arrives (or whose last one leaves)
// kills (revives) its pair's arc unless the pair's live counter says
// another of its routes is still alive. Repeating the current state, and
// ids past the universe, are no-ops. Every fault mutator of the Engine
// is a call to it.
func (e *Engine) toggle(item int, on bool) {
	if item >= e.faults.Cap() || e.faults.Has(item) == on {
		return
	}
	routes := e.itemRoutes[e.itemOff[item]:e.itemOff[item+1]]
	flips, arcs := 0, 0 // routes and arcs whose state the toggle flips
	if on {
		e.faults.Add(item)
		for _, r := range routes {
			if e.hits[r]++; e.hits[r] != 1 {
				continue
			}
			flips++
			a := &e.routes[r]
			if a.shared >= 0 {
				if e.live[a.shared]--; e.live[a.shared] != 0 {
					continue
				}
			}
			e.adj[a.fwd>>6] ^= 1 << (a.fwd & 63)
			e.adjT[a.bwd>>6] ^= 1 << (a.bwd & 63)
			arcs++
		}
		e.deadRoutesTotal += flips
		e.alivePairs -= arcs
	} else {
		e.faults.Remove(item)
		for _, r := range routes {
			if e.hits[r]--; e.hits[r] != 0 {
				continue
			}
			flips++
			a := &e.routes[r]
			if a.shared >= 0 {
				if e.live[a.shared]++; e.live[a.shared] != 1 {
					continue
				}
			}
			e.adj[a.fwd>>6] ^= 1 << (a.fwd & 63)
			e.adjT[a.bwd>>6] ^= 1 << (a.bwd & 63)
			arcs++
		}
		e.deadRoutesTotal -= flips
		e.alivePairs += arcs
	}
	if item < e.n {
		e.alive[item>>6] ^= 1 << (uint(item) & 63)
		if on {
			e.aliveCount--
		} else {
			e.aliveCount++
		}
	}
}

// AddFault marks node v faulty, incrementally killing every surviving
// arc whose last live route contains v. Adding an already-faulty or
// out-of-range node is a no-op. Cost is proportional to the number of
// routes through v, not to the routing size.
func (e *Engine) AddFault(v int) {
	if v >= 0 && v < e.n {
		e.toggle(v, true)
	}
}

// RemoveFault unmarks v, reviving every arc that regains a live route.
// Removing a non-faulty node is a no-op.
func (e *Engine) RemoveFault(v int) {
	if v >= 0 && v < e.n {
		e.toggle(v, false)
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
	if it, ok := e.items.Link(u, v); ok {
		e.toggle(it, true)
	}
}

// RemoveEdgeFault unmarks the link {u, v}, reviving every arc that
// regains a live route. Removing a non-faulty edge is a no-op.
func (e *Engine) RemoveEdgeFault(u, v int) {
	if it, ok := e.items.Link(u, v); ok {
		e.toggle(it, false)
	}
}

// HasEdgeFault reports whether the link {u, v} is currently faulty.
func (e *Engine) HasEdgeFault(u, v int) bool {
	it, ok := e.items.Link(u, v)
	return ok && e.faults.Has(it)
}

// EdgeFaults returns the current edge-fault set as normalized
// (U < V) faults in the graph's lexicographic edge order.
func (e *Engine) EdgeFaults() []routing.EdgeFault {
	_, cuts := split(e.items, e.faults.Elements())
	return cuts
}

// EdgeFaultCount returns the number of faulty edges.
func (e *Engine) EdgeFaultCount() int { return e.faults.Count() - (e.n - e.aliveCount) }

// DeadRouteCount returns the number of routes with at least one fault
// (node or edge) on them. It is the engine's measure of how much damage
// the current fault set does to the routing, independent of which arcs
// happen to survive via parallel routes.
func (e *Engine) DeadRouteCount() int { return e.deadRoutesTotal }

// Reset removes all node and edge faults.
func (e *Engine) Reset() { move(e.faults, nil, 0, e.faults.Cap(), e.toggle) }

// SetFaults replaces the current node-fault set with b (nil means
// empty), applying only the symmetric difference incrementally. Edge
// faults are left untouched.
func (e *Engine) SetFaults(b *graph.Bitset) { e.setItems(b, nil, e.n) }

// SetMixedFaults replaces both fault sets (nil/empty mean empty),
// applying only the differences incrementally. Unknown or self-loop
// edges in the list are ignored.
func (e *Engine) SetMixedFaults(nodes *graph.Bitset, edges []routing.EdgeFault) {
	e.setItems(nodes, edges, e.faults.Cap())
}

// setItems moves the faulty items below hi to the given nodes and links.
func (e *Engine) setItems(nodes *graph.Bitset, edges []routing.EdgeFault, hi int) {
	var vs []int
	if nodes != nil {
		vs = nodes.Elements()
	}
	move(e.faults, set(e.items, vs, edges), 0, hi, e.toggle)
}

// bfsFrom is the one word-parallel BFS level loop under every distance
// query of the Engine. Each level ORs the rows (e.adj for distances
// from src, e.adjT for distances to it) of the frontier nodes and masks
// out visited nodes, 64 nodes per machine word, on the scratch e.bfs.
// The targets are the nodes of mask, or every alive node when mask is
// nil; nodes outside mask are neither reached nor expanded. The loop
// stops once every target, src included, is covered, after levels
// levels, or when a level reaches nothing new. It returns the number of
// levels and whether every target was covered, (0, false) if not. A
// non-nil dist receives every node's level, graph.Unreachable for nodes
// not reached. After a false result e.bfs.visited holds the nodes reached;
// after a true one it holds the nodes within level − 1 hops, whether
// the last level ran to its end or stopped early on coverage (see
// expand), so the targets outside it are those at distance level.
func (e *Engine) bfsFrom(rows []uint64, src int, mask []uint64, levels int, dist []int) (int, bool) {
	want, target := e.alive, e.aliveCount
	if mask != nil {
		want, target = mask, 0
		for _, mw := range mask {
			target += bits.OnesCount64(mw)
		}
	}
	visited, cur, next := e.bfs.visited, e.bfs.cur, e.bfs.next
	clear(visited)
	clear(cur)
	visited[src>>6] = 1 << (uint(src) & 63)
	cur[src>>6] = visited[src>>6]
	if dist != nil {
		for i := range dist[:e.n] {
			dist[i] = graph.Unreachable
		}
		dist[src] = 0
	}
	covered, level := 1, 0
	for covered < target {
		if level == levels {
			return 0, false
		}
		level++
		if expand(rows, cur, next, visited, want) {
			if dist != nil {
				for i, tw := range want {
					for nw := tw &^ visited[i]; nw != 0; nw &= nw - 1 {
						dist[i<<6|bits.TrailingZeros64(nw)] = level
					}
				}
			}
			return level, true
		}
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
		if dist != nil {
			for i, nw := range next {
				for ; nw != 0; nw &= nw - 1 {
					dist[i<<6|bits.TrailingZeros64(nw)] = level
				}
			}
		}
		covered += fresh
		cur, next = next, cur
	}
	for i, cw := range cur {
		visited[i] &^= cw
	}
	return level, true
}

// expand sets next to the union of the rows of the nodes in cur, or
// stops early and reports true once visited and next together cover
// want. Coverage is tested after the 1st, 2nd, 4th, 8th, … row: on a
// hub-and-spoke route graph the first hub row of the last level covers
// nearly every node, so the level skips most of its rows, while a level
// that cannot finish pays only a logarithmic number of tests, each of
// which stops at the first uncovered word.
func expand(rows, cur, next, visited, want []uint64) bool {
	clear(next)
	words := len(next)
	row, test := 0, 1
	for wi, w := range cur {
		for ; w != 0; w &= w - 1 {
			u := wi<<6 | bits.TrailingZeros64(w)
			for i, rw := range rows[u*words : (u+1)*words] {
				next[i] |= rw
			}
			if row++; row == test {
				test <<= 1
				if covers(want, visited, next) {
					return true
				}
			}
		}
	}
	return false
}

// covers reports whether every node of want is in visited or next.
func covers(want, visited, next []uint64) bool {
	for i, w := range want {
		if w&^visited[i]&^next[i] != 0 {
			return false
		}
	}
	return true
}

// eccentricity returns the number of levels a BFS from src needs to
// reach every alive node, or (0, false) if some alive node is
// unreachable from src.
func (e *Engine) eccentricity(src int) (int, bool) {
	return e.bfsFrom(e.adj, src, nil, e.n, nil)
}

// Diameter returns the directed diameter of the current surviving route
// graph over the nonfaulty nodes, and true; or (0, false) if some
// nonfaulty node cannot reach some other nonfaulty node. At most one
// alive node yields diameter 0, matching Digraph.Diameter. It is the
// unpruned definition, one BFS per alive source; the searches score
// with the branch-and-bound diameterAbove instead.
func (e *Engine) Diameter() (int, bool) { return e.sweep(nil) }

// sweep is the unpruned diameter loop: one BFS from every node of mask
// within mask, nil meaning the alive nodes. It returns the largest
// eccentricity, or (0, false) if some source misses a node of mask.
func (e *Engine) sweep(mask []uint64) (int, bool) {
	srcs := mask
	if srcs == nil {
		srcs = e.alive
	}
	diam := 0
	for i, sw := range srcs {
		for w := sw; w != 0; w &= w - 1 {
			ecc, ok := e.bfsFrom(e.adj, i<<6|bits.TrailingZeros64(w), mask, e.n, nil)
			if !ok {
				return 0, false
			}
			diam = max(diam, ecc)
		}
	}
	return diam, true
}

// firstAlive returns the smallest nonfaulty node, or -1 if none.
func (e *Engine) firstAlive() int {
	for i, aw := range e.alive {
		if aw != 0 {
			return i<<6 | bits.TrailingZeros64(aw)
		}
	}
	return -1
}

// pivots is the result of the branch-and-bound kernel's pivot phase:
// k pivot nodes and their exact out-eccentricities.
type pivots struct {
	k    int
	node [1 + diamExtraPivots]int
	ecc  [1 + diamExtraPivots]int
}

// pivot runs the pivot phase: pivot 0 is the first alive node, the
// others are the first diamExtraPivots further alive nodes of the
// compiled in-degree order, each measured by one forward BFS, whose
// last level it keeps as the pivot's far set, row h of e.far. It
// returns the pivots and the largest of their eccentricities, or false
// when some pivot cannot reach every alive node.
func (e *Engine) pivot() (pivots, int, bool) {
	var p pivots
	worst := 0
	measure := func(v int) bool {
		ecc, ok := e.eccentricity(v)
		far := e.far[p.k*e.words : (p.k+1)*e.words]
		for i, aw := range e.alive {
			far[i] = aw &^ e.bfs.visited[i]
		}
		p.node[p.k], p.ecc[p.k] = v, ecc
		p.k++
		worst = max(worst, ecc)
		return ok
	}
	first := e.firstAlive()
	if !measure(first) {
		return p, 0, false
	}
	for _, h := range e.hubs {
		if p.k == len(p.node) {
			break
		}
		if v := int(h); v != first && !e.faults.Has(v) && !measure(v) {
			return p, 0, false
		}
	}
	return p, worst, true
}

// skipSet sets e.skip to the sources the pivots p certify at limit:
// each has ecc ≤ limit and reaches every alive node, so it needs no BFS.
// Two rules add them.
//
//   - Balls. The reverse ball B⁻(p, limit − ecc(p)) holds the nodes
//     within that many hops of pivot p. A member v has ecc(v) ≤ d(v,p) +
//     ecc(p) ≤ limit by the triangle inequality, and it reaches every
//     alive node through p. Each ball is a reverse BFS capped at its
//     radius, which on the paper's route graphs is usually 0 (just p) or
//     1 (p's in-row).
//   - Shared covers. A pivot is tight when ecc(p) = limit; its far set
//     (see pivot) is then the alive nodes it does not reach within
//     limit − 1 hops. For every set S of two or more tight pivots whose
//     far sets share no node, the sources with an arc to each pivot of S,
//     the AND of their adjT rows, join. For such a source v and any
//     alive t, some p in S reaches t within limit − 1 hops, so d(v,t) ≤
//     limit. A superset of a set that passed adds nothing and is skipped.
//
// A pivot below the limit has an empty far set and a ball of radius at
// least 1, which holds its in-row, so only tight pivots add covers, and
// the set that a higher limit builds contains the one a lower limit did.
func (e *Engine) skipSet(p *pivots, limit int) {
	clear(e.skip)
	tight := 0 // bit h set when pivot h is tight
	for h := 0; h < p.k; h++ {
		if _, all := e.bfsFrom(e.adjT, p.node[h], nil, limit-p.ecc[h], nil); all {
			copy(e.skip, e.alive)
			return
		}
		for i, vw := range e.bfs.visited {
			e.skip[i] |= vw
		}
		if p.ecc[h] == limit {
			tight |= 1 << h
		}
	}
	var done uint64 // bit s set when pivot set s contains a set that passed
	for s := 3; s <= tight; s++ {
		if s&^tight != 0 || s&(s-1) == 0 || done&(1<<s) != 0 || e.farMeet(s) {
			continue
		}
		for i := range e.skip {
			w := e.alive[i]
			for h := s; h != 0; h &= h - 1 {
				w &= e.adjT[p.node[bits.TrailingZeros(uint(h))]*e.words+i]
			}
			e.skip[i] |= w
		}
		for sup := s; sup <= tight; sup = (sup + 1) | s {
			done |= 1 << sup
		}
	}
}

// farMeet reports whether the far sets of the pivots in set s (bit h
// for pivot h) share a node.
func (e *Engine) farMeet(s int) bool {
	for i, aw := range e.alive {
		w := aw
		for h := s; h != 0; h &= h - 1 {
			w &= e.far[bits.TrailingZeros(uint(h))*e.words+i]
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// diameterAbove is the branch-and-bound diameter kernel and the only
// way the searches score a fault set: it decides whether the surviving
// diameter exceeds bound, reporting (diam, above, connected). When
// above is true, diam is the exact diameter; when above is false the
// diameter is only known to be at most bound and diam is unspecified.
// connected false matches Diameter()'s (0, false) exactly.
//
// Instead of one BFS per source, it works through a handful of pivots
// (see pivot), each with an exact forward BFS, and skips without a BFS
// every source the pivots certify at limit = max(bound, runningMax)
// (see skipSet): the sources in the reverse balls around them, where
// ecc(v) ≤ d(v,p) + ecc(p) by the triangle inequality, and the shared
// in-neighbors of tight pivots whose far sets do not meet. The rest get
// exact eccentricities, in node order (see sources). A skipped source
// can never hold a value above the returned maximum, which keeps the
// exact-when-above contract. Disconnection detection is exact too: a
// skipped source reaches every node through a pivot, and every other
// alive source gets its own BFS. It runs on the caller's goroutine; the
// searches parallelize across fault sets, each worker on its own clone.
//
// High-in-degree pivots are what make this effective on the paper
// constructions: their route graphs are hub-and-spoke (a hub with
// in-degree k and out-eccentricity 2 certifies ecc ≤ 3 for all k of
// its in-neighbors at once), so once the enumeration's incumbent
// reaches hubEcc+1, nearly every source is skipped. When the incumbent
// ties the hubs' eccentricity the balls shrink to the pivots
// themselves; then two hubs that together reach every node within one
// hop less skip the sources routed to both, and the coverage-stopped
// levels of bfsFrom carry the cost of the rest.
//
// The caller must ensure at least one alive node exists.
//
// On dense surviving graphs — route graphs of total routings are
// complete digraphs minus the arcs the faults killed — the triangle
// bound cannot prune (every eccentricity ties the tiny diameter), so
// the kernel dispatches to the complement-scan variant (see dense).
func (e *Engine) diameterAbove(bound int) (int, bool, bool) {
	if e.dense() {
		return e.diameterAboveDense(bound)
	}
	p, worst, ok := e.pivot()
	if ok {
		e.skipSet(&p, max(worst, bound))
		worst, ok = e.sources(&p, worst, bound)
	}
	if !ok {
		return 0, false, false
	}
	if worst > bound {
		return worst, true, true
	}
	return 0, false, true
}

// dense reports whether diameterAbove dispatches to the complement-scan
// kernel: more than two nodes are alive and at least 7/8 of their
// ordered pairs still carry an arc.
func (e *Engine) dense() bool {
	a := e.aliveCount
	dead := a*(a-1) - e.alivePairs
	return a > 2 && dead >= 0 && dead*8 <= a*(a-1)
}

// sources runs a BFS from every alive source outside e.skip, in node
// order. A source above the limit max(worst, bound) becomes the new
// worst and limit, and the skip set is rebuilt for it (no pivot is
// tight any more, so the balls alone grow), so the result is exact
// whenever it ends above bound. It reports false on a disconnection.
func (e *Engine) sources(p *pivots, worst, bound int) (int, bool) {
	limit := max(worst, bound)
	for i, aw := range e.alive {
		// e.skip only grows (see skipSet), so re-masking after each
		// source is exact.
		for w := aw &^ e.skip[i]; w != 0; w = w & (w - 1) &^ e.skip[i] {
			ecc, ok := e.eccentricity(i<<6 | bits.TrailingZeros64(w))
			if !ok {
				return 0, false
			}
			if ecc > limit {
				worst, limit = ecc, ecc
				e.skipSet(p, limit)
			}
		}
	}
	return worst, true
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
						full, ok := e.eccentricity(s)
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

// DiameterParallel returns Diameter(), computed by the branch-and-bound
// kernel diameterAbove at bound −1 on the caller's goroutine.
//
// Deprecated: the kernel has no intra-diameter parallelism, and workers
// is ignored. Use Diameter; the searches parallelize across fault sets.
func (e *Engine) DiameterParallel(workers int) (int, bool) {
	if e.aliveCount <= 1 {
		return e.Diameter()
	}
	d, _, connected := e.diameterAbove(-1)
	return d, connected
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
	copy(e.mask, e.alive)
	for _, v := range excluded.Elements() {
		if v < e.n {
			e.mask[v>>6] &^= 1 << (uint(v) & 63)
		}
	}
	return e.sweep(e.mask)
}

// DistancesFrom writes into dist (length at least N) the hop distance
// from src to every node in the current surviving route graph, with
// graph.Unreachable marking unreachable or faulty nodes. It mirrors
// Digraph.BFSDistances on the surviving graph but runs word-parallel
// and allocation-free.
func (e *Engine) DistancesFrom(src int, dist []int) {
	if src < 0 || src >= e.n || e.faults.Has(src) {
		for i := range dist[:e.n] {
			dist[i] = graph.Unreachable
		}
		return
	}
	e.bfsFrom(e.adj, src, nil, e.n, dist)
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

// The evaluator contract of the search driver (toggle is above). Scores
// are 0 when fewer than two nodes are alive (nothing to route between),
// the diameter (at least 1) otherwise, and disconnected.

func (e *Engine) clone() *Engine { return e.Clone() }

func (e *Engine) reset() { e.Reset() }

// score decides the diameter with diameterAbove against
// max(bound, tie−1): the threshold keeps ties with tie exact, and a set
// at or below it scores 0.
func (e *Engine) score(bound, tie int) int {
	if e.aliveCount <= 1 {
		return 0
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

// probe is toggle, score, toggle back.
func (e *Engine) probe(item, bound, tie int) int {
	e.toggle(item, true)
	s := e.score(bound, tie)
	e.toggle(item, false)
	return s
}

func (e *Engine) better(a, b int) bool { return a > b }

func (e *Engine) final(s int) bool { return s == disconnected }
