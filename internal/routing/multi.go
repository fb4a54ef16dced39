package routing

import (
	"fmt"

	"ftroute/internal/graph"
)

// MultiRouting assigns up to a fixed number of parallel routes to each
// ordered pair — the extended model of Section 6 of the paper. An arc
// of the surviving graph exists when at least one of the pair's routes
// avoids the faults.
type MultiRouting struct {
	g             *graph.Graph
	limit         int
	routes        map[pairKey][]Path
	bidirectional bool
}

// NewMulti returns an empty multirouting allowing up to limit routes per
// ordered pair (limit <= 0 means unlimited).
func NewMulti(g *graph.Graph, limit int, bidirectional bool) *MultiRouting {
	return &MultiRouting{g: g, limit: limit, routes: make(map[pairKey][]Path), bidirectional: bidirectional}
}

// Graph returns the underlying graph.
func (m *MultiRouting) Graph() *graph.Graph { return m.g }

// Limit returns the per-pair route budget (0 = unlimited).
func (m *MultiRouting) Limit() int { return m.limit }

// MaxRoutesPerPair returns the largest number of routes any ordered pair
// carries.
func (m *MultiRouting) MaxRoutesPerPair() int {
	max := 0
	for _, ps := range m.routes {
		if len(ps) > max {
			max = len(ps)
		}
	}
	return max
}

// Add appends a route for (path.Src(), path.Dst()), ignoring exact
// duplicates. It returns an error if the path is invalid or the pair's
// budget is exhausted. Bidirectional multiroutings install the reverse
// as well.
func (m *MultiRouting) Add(path Path) error {
	if err := checkSimplePath(m.g, path); err != nil {
		return err
	}
	if err := m.add(path); err != nil {
		return err
	}
	if m.bidirectional {
		return m.add(path.Reversed())
	}
	return nil
}

// AddCapped is Add except that a pair whose budget is exhausted is left
// unchanged (reported as added=false) instead of failing. Invalid paths
// still return an error. Bidirectional multiroutings report added=true
// if either direction accepted the path.
func (m *MultiRouting) AddCapped(path Path) (added bool, err error) {
	if err := checkSimplePath(m.g, path); err != nil {
		return false, err
	}
	if m.addIfRoom(path) {
		added = true
	}
	if m.bidirectional && m.addIfRoom(path.Reversed()) {
		added = true
	}
	return added, nil
}

func (m *MultiRouting) addIfRoom(path Path) bool {
	key := pairKey{int32(path.Src()), int32(path.Dst())}
	for _, q := range m.routes[key] {
		if q.Equal(path) {
			return true
		}
	}
	if m.limit > 0 && len(m.routes[key]) >= m.limit {
		return false
	}
	m.routes[key] = append(m.routes[key], path)
	return true
}

func (m *MultiRouting) add(path Path) error {
	key := pairKey{int32(path.Src()), int32(path.Dst())}
	for _, q := range m.routes[key] {
		if q.Equal(path) {
			return nil
		}
	}
	if m.limit > 0 && len(m.routes[key]) >= m.limit {
		return fmt.Errorf("routing: pair (%d,%d) exceeds %d routes", path.Src(), path.Dst(), m.limit)
	}
	m.routes[key] = append(m.routes[key], path)
	return nil
}

// Get returns the routes assigned to (u, v).
func (m *MultiRouting) Get(u, v int) []Path {
	return m.routes[pairKey{int32(u), int32(v)}]
}

// Equal reports whether m and o have the same route budget and direction
// mode, and give every ordered pair the same routes in the same order.
func (m *MultiRouting) Equal(o *MultiRouting) bool {
	if m.limit != o.limit || m.bidirectional != o.bidirectional || len(m.routes) != len(o.routes) {
		return false
	}
	for key, ps := range m.routes {
		qs, ok := o.routes[key]
		if !ok || len(ps) != len(qs) {
			return false
		}
		for i := range ps {
			if !ps[i].Equal(qs[i]) {
				return false
			}
		}
	}
	return true
}

// Pairs returns the number of ordered pairs with at least one route.
func (m *MultiRouting) Pairs() int { return len(m.routes) }

// EachRoute calls fn once per stored route; a pair with k parallel
// routes produces k calls with the same (u, v). Iteration order is
// unspecified. fn must not mutate the multirouting.
func (m *MultiRouting) EachRoute(fn func(u, v int, p Path)) {
	for k, ps := range m.routes {
		for _, p := range ps {
			fn(int(k.u), int(k.v), p)
		}
	}
}

// SurvivingGraphMixed computes the surviving route graph under both
// node faults (may be nil) and edge faults: an arc u→v exists when at
// least one route of the pair contains no faulty node and traverses no
// faulty edge. It is the multirouting analogue of
// Routing.SurvivingGraphMixed.
func (m *MultiRouting) SurvivingGraphMixed(nodeFaults *graph.Bitset, edgeFaults []EdgeFault) *graph.Digraph {
	bad := make(map[EdgeFault]bool, len(edgeFaults))
	for _, e := range edgeFaults {
		bad[e.Normalize()] = true
	}
	d := graph.NewDigraph(m.g.N())
	if nodeFaults != nil {
		for _, f := range nodeFaults.Elements() {
			d.Disable(f)
		}
	}
	for k, ps := range m.routes {
		if nodeFaults.Has(int(k.u)) || nodeFaults.Has(int(k.v)) {
			continue
		}
		for _, p := range ps {
			if !pathAffected(p, nodeFaults) && !pathUsesEdge(p, bad) {
				d.AddArc(int(k.u), int(k.v))
				break
			}
		}
	}
	return d
}

// SurvivingGraph computes the surviving route graph: an arc u→v exists
// when at least one route of the pair avoids the fault set.
func (m *MultiRouting) SurvivingGraph(faults *graph.Bitset) *graph.Digraph {
	d := graph.NewDigraph(m.g.N())
	if faults != nil {
		for _, f := range faults.Elements() {
			d.Disable(f)
		}
	}
	for k, ps := range m.routes {
		if faults.Has(int(k.u)) || faults.Has(int(k.v)) {
			continue
		}
		for _, p := range ps {
			if !pathAffected(p, faults) {
				d.AddArc(int(k.u), int(k.v))
				break
			}
		}
	}
	return d
}
