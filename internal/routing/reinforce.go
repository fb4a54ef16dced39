package routing

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
)

// Reinforce builds a failover-ready multirouting from a single routing,
// in the spirit of Lenzen–Medina's "Robust Routing Made Easy": every
// routed pair keeps its primary route and gains up to backups additional
// routes, where backup i is a BFS shortest path (deterministic
// smallest-id tie-breaking) in the graph with the links of all routes
// already chosen for the pair removed. Successive backups are therefore
// link-disjoint from their predecessors: any cut set that kills the
// primary leaves the first backup intact unless it also spends budget on
// the backup's own links. Pairs whose residual graph disconnects simply
// stop early — reinforcement degrades gracefully on sparse graphs.
//
// The pairs' backups are searched in blocks on up to GOMAXPROCS workers
// and installed in sorted pair order, so the routes, and the first error
// reported, are those of reinforcing one pair at a time. The install
// fills pre-sized storage: a map made for every pair, and for each pair
// a slot of backups+1 routes in one backing array.
func Reinforce(r *Routing, backups int) (*MultiRouting, error) {
	backups = max(backups, 0)
	keys := sortedKeys(r.routes)
	alts := make([]Path, len(keys)*backups) // pair i's backups, up to the first nil
	if backups > 0 {
		searchBackups(r, keys, alts, backups)
	}
	per := backups + 1 // routes per pair
	m := &MultiRouting{g: r.g, limit: per, routes: make(map[pairKey][]Path, len(keys))}
	slots := make([]Path, len(keys)*per)
	var firstErr error
	for i, k := range keys {
		m.routes[k] = slots[i*per : i*per : (i+1)*per]
		if err := m.Add(r.routes[k]); err != nil {
			return nil, err
		}
		for _, alt := range alts[i*backups : (i+1)*backups] {
			if alt == nil {
				break
			}
			added, err := m.AddCapped(alt)
			if err != nil {
				firstErr = err
				break
			}
			if !added {
				break
			}
		}
	}
	return m, firstErr
}

// pairsPerBlock is the number of pairs a Reinforce worker claims at a
// time.
const pairsPerBlock = 64

// searchBackups fills alts with the backups of the pairs keys of r,
// backups slots per pair in key order, leaving a pair's slots nil from
// its first missing backup on. Each backup assumes the ones before it
// were installed; Reinforce stops installing a pair's backups where one
// is refused, so a later backup that assumed it is never used.
func searchBackups(r *Routing, keys []pairKey, alts []Path, backups int) {
	items := graph.NewItems(r.g)
	blocks := (len(keys) + pairsPerBlock - 1) / pairsPerBlock
	workers := max(1, min(runtime.GOMAXPROCS(0), blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newBackupSearch(items)
			for {
				b := int(next.Add(1) - 1)
				if b >= blocks {
					return
				}
				for i := b * pairsPerBlock; i < min(len(keys), (b+1)*pairsPerBlock); i++ {
					s.pair(r.routes[keys[i]], alts[i*backups:(i+1)*backups])
				}
			}
		}()
	}
	wg.Wait()
}

// backupSearch is one worker's scratch: a stamp on every link the
// current pair's routes use, and a BFS whose labels carry a per-search
// stamp, so neither is cleared between pairs or searches.
type backupSearch struct {
	items  *graph.Items
	used   []uint32 // link item -> stamp of the last pair whose routes use it
	pairs  uint32   // the current pair's stamp
	seen   []uint32 // node -> stamp of the last search that labelled it
	runs   uint32   // the current search's stamp
	parent []int32  // node -> the node it was labelled from, -1 for the source
	queue  []int32
}

func newBackupSearch(items *graph.Items) *backupSearch {
	n := items.N()
	return &backupSearch{
		items:  items,
		used:   make([]uint32, n+items.M()),
		seen:   make([]uint32, n),
		parent: make([]int32, n),
		queue:  make([]int32, 0, n),
	}
}

// pair fills out with the backups of the pair routed along primary:
// each a shortest path avoiding the links of primary and of the backups
// before it, until the residual graph disconnects the pair.
func (s *backupSearch) pair(primary Path, out []Path) {
	if s.pairs++; s.pairs == 0 { // the stamp wrapped: forget every mark
		clear(s.used)
		s.pairs = 1
	}
	s.mark(primary)
	for b := range out {
		alt := s.shortestPath(primary.Src(), primary.Dst())
		if alt == nil {
			return
		}
		out[b] = alt
		s.mark(alt)
	}
}

// mark stamps p's links as used by the current pair.
func (s *backupSearch) mark(p Path) {
	for i := 0; i+1 < len(p); i++ {
		if l, ok := s.items.Link(p[i], p[i+1]); ok {
			s.used[l] = s.pairs
		}
	}
}

// shortestPath runs a BFS from u to v (u != v) over the links the
// current pair does not use, labelling each node from the first node
// expanded next to it, and neighbors in increasing order: the
// smallest-id tie-breaking of ShortestPath. It stops when v is labelled,
// which fixes v's parent and all of its ancestors, so the path is the
// one a full BFS would give. It returns nil when v is unreachable.
func (s *backupSearch) shortestPath(u, v int) Path {
	if s.runs++; s.runs == 0 { // the stamp wrapped: forget every label
		clear(s.seen)
		s.runs = 1
	}
	s.seen[u], s.parent[u] = s.runs, -1
	s.queue = append(s.queue[:0], int32(u))
	for head := 0; head < len(s.queue); head++ {
		x := s.queue[head]
		nbrs, links := s.items.Arcs(int(x))
		for j, y := range nbrs {
			if s.seen[y] == s.runs || s.used[links[j]] == s.pairs {
				continue
			}
			s.seen[y], s.parent[y] = s.runs, x
			if int(y) == v {
				return s.path(v)
			}
			s.queue = append(s.queue, y)
		}
	}
	return nil
}

// path follows the parents back from v to the search's source.
func (s *backupSearch) path(v int) Path {
	d := 1
	for x := s.parent[v]; x >= 0; x = s.parent[x] {
		d++
	}
	p := make(Path, d)
	for x := int32(v); x >= 0; x = s.parent[x] {
		d--
		p[d] = int(x)
	}
	return p
}
