// Package routing defines the routing model of Dolev, Halpern, Simons
// and Strong (1984) as used by Peleg and Simons: a routing ρ is a
// partial function assigning to ordered node pairs (x, y) a fixed simple
// path from x to y. A bidirectional routing uses the same path in both
// directions. Given a fault set F, the surviving route graph R(G,ρ)/F
// contains the nonfaulty nodes with an arc x→y exactly when ρ(x, y)
// exists and contains no faulty node.
//
// The package provides the routing table representation with
// conflict-checked construction (the paper's "miserly" at-most-one-route
// -per-pair model is enforced, not assumed), validation against the
// underlying graph, surviving-graph computation, multiroutings (§6 of
// the paper) and a fixed shortest-path routing baseline.
package routing

import (
	"errors"
	"fmt"

	"ftroute/internal/graph"
)

// Errors reported by routing construction and validation.
var (
	// ErrConflict indicates two different paths assigned to one ordered pair.
	ErrConflict = errors.New("routing: conflicting route for pair")
	// ErrNotPath indicates a route that is not a simple path of the graph.
	ErrNotPath = errors.New("routing: not a simple path in the graph")
)

// Path is a route: a sequence of nodes starting at the source and ending
// at the destination.
type Path []int

// Src returns the first node of the path.
func (p Path) Src() int { return p[0] }

// Dst returns the last node of the path.
func (p Path) Dst() int { return p[len(p)-1] }

// Reversed returns the path traversed backwards.
func (p Path) Reversed() Path {
	r := make(Path, len(p))
	for i, v := range p {
		r[len(p)-1-i] = v
	}
	return r
}

// Contains reports whether node v lies on the path (endpoints included).
func (p Path) Contains(v int) bool {
	for _, u := range p {
		if u == v {
			return true
		}
	}
	return false
}

// Equal reports whether two paths are identical node sequences.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// checkSimplePath validates that p is a nonempty simple path in g from
// p[0] to p[len-1].
func checkSimplePath(g *graph.Graph, p Path) error {
	if len(p) < 2 {
		return fmt.Errorf("%w: too short: %v", ErrNotPath, p)
	}
	seen := make(map[int]bool, len(p))
	for i, v := range p {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("%w: node %d out of range", ErrNotPath, v)
		}
		if seen[v] {
			return fmt.Errorf("%w: repeated node %d in %v", ErrNotPath, v, p)
		}
		seen[v] = true
		if i > 0 && !g.HasEdge(p[i-1], v) {
			return fmt.Errorf("%w: missing edge %d-%d in %v", ErrNotPath, p[i-1], v, p)
		}
	}
	return nil
}

// pairKey identifies an ordered node pair.
type pairKey struct{ u, v int32 }

// Routing is a (partial) assignment of simple paths to ordered node
// pairs. Construct with New (unidirectional) or NewBidirectional; in a
// bidirectional routing, setting a route automatically installs the
// reversed path for the opposite direction and conflicts are checked
// against both.
type Routing struct {
	g             *graph.Graph
	routes        map[pairKey]Path
	bidirectional bool
}

// New returns an empty unidirectional routing over g.
func New(g *graph.Graph) *Routing {
	return &Routing{g: g, routes: make(map[pairKey]Path)}
}

// NewBidirectional returns an empty bidirectional routing over g.
func NewBidirectional(g *graph.Graph) *Routing {
	r := New(g)
	r.bidirectional = true
	return r
}

// Graph returns the underlying graph.
func (r *Routing) Graph() *graph.Graph { return r.g }

// Bidirectional reports whether the routing is bidirectional.
func (r *Routing) Bidirectional() bool { return r.bidirectional }

// Len returns the number of ordered pairs with a route (a bidirectional
// routing counts both directions).
func (r *Routing) Len() int { return len(r.routes) }

// Set installs path as the route for the ordered pair (path.Src(),
// path.Dst()). Setting the identical path again is a no-op; setting a
// different path for a pair that already has one returns ErrConflict.
// For bidirectional routings the reversed path is installed for the
// opposite direction under the same rules.
func (r *Routing) Set(path Path) error {
	if err := checkSimplePath(r.g, path); err != nil {
		return err
	}
	if err := r.install(path); err != nil {
		return err
	}
	if r.bidirectional {
		if err := r.install(path.Reversed()); err != nil {
			return err
		}
	}
	return nil
}

// install stores one direction with conflict detection.
func (r *Routing) install(path Path) error {
	key := pairKey{int32(path.Src()), int32(path.Dst())}
	if old, ok := r.routes[key]; ok {
		if old.Equal(path) {
			return nil
		}
		return fmt.Errorf("%w (%d,%d): %v vs %v", ErrConflict, path.Src(), path.Dst(), old, path)
	}
	r.routes[key] = path
	return nil
}

// Get returns the route for the ordered pair (u, v), if any.
func (r *Routing) Get(u, v int) (Path, bool) {
	p, ok := r.routes[pairKey{int32(u), int32(v)}]
	return p, ok
}

// Equal reports whether r and o are both bidirectional or both not, and
// route the same ordered pairs along the same paths.
func (r *Routing) Equal(o *Routing) bool {
	if r.bidirectional != o.bidirectional || len(r.routes) != len(o.routes) {
		return false
	}
	for key, p := range r.routes {
		if q, ok := o.routes[key]; !ok || !p.Equal(q) {
			return false
		}
	}
	return true
}

// Has reports whether the ordered pair (u, v) has a route.
func (r *Routing) Has(u, v int) bool {
	_, ok := r.routes[pairKey{int32(u), int32(v)}]
	return ok
}

// Each calls fn for every ordered pair with a route. Iteration order is
// unspecified. fn must not mutate the routing.
func (r *Routing) Each(fn func(u, v int, p Path)) {
	for k, p := range r.routes {
		fn(int(k.u), int(k.v), p)
	}
}

// EachRoute calls fn for every stored route, exactly once per route.
// For a plain routing this is identical to Each; it exists so that
// Routing and MultiRouting expose a uniform route-enumeration method
// (eval's engine compiler consumes it). Iteration order is unspecified.
func (r *Routing) EachRoute(fn func(u, v int, p Path)) { r.Each(fn) }

// SymmetrizeMissing installs, for every ordered pair (u,v) that has a
// route while (v,u) does not, the reversed path as the (v,u) route. This
// is Component B-POL 5 of the paper's unidirectional bipolar routing.
func (r *Routing) SymmetrizeMissing() {
	var missing []Path
	for k, p := range r.routes {
		if _, ok := r.routes[pairKey{k.v, k.u}]; !ok {
			missing = append(missing, p.Reversed())
		}
	}
	for _, p := range missing {
		// Cannot conflict: we only fill pairs that had no route, and
		// distinct sources guarantee distinct keys.
		r.routes[pairKey{int32(p.Src()), int32(p.Dst())}] = p
	}
}

// Validate re-checks every stored route: simple path in g, endpoints
// match the pair, and (for bidirectional routings) both directions use
// the same path. It returns the first violation found.
func (r *Routing) Validate() error {
	for k, p := range r.routes {
		if err := checkSimplePath(r.g, p); err != nil {
			return err
		}
		if int32(p.Src()) != k.u || int32(p.Dst()) != k.v {
			return fmt.Errorf("%w: pair (%d,%d) stores path %v", ErrNotPath, k.u, k.v, p)
		}
		if r.bidirectional {
			q, ok := r.routes[pairKey{k.v, k.u}]
			if !ok {
				return fmt.Errorf("routing: bidirectional routing missing reverse of (%d,%d)", k.u, k.v)
			}
			if !q.Equal(p.Reversed()) {
				return fmt.Errorf("%w: asymmetric pair (%d,%d)", ErrConflict, k.u, k.v)
			}
		}
	}
	return nil
}

// Complete reports whether every ordered pair of distinct nodes has a
// route.
func (r *Routing) Complete() bool {
	n := r.g.N()
	return len(r.routes) == n*(n-1)
}

// Stats summarizes a routing for reporting.
type Stats struct {
	Pairs     int     // ordered pairs with a route
	MaxLen    int     // longest route (edges)
	AvgLen    float64 // average route length (edges)
	Complete  bool    // every ordered pair routed
	Bidirect  bool
	NodeCount int
}

// Stats computes summary statistics.
func (r *Routing) Stats() Stats {
	s := Stats{Pairs: len(r.routes), Bidirect: r.bidirectional, NodeCount: r.g.N(), Complete: r.Complete()}
	total := 0
	for _, p := range r.routes {
		l := len(p) - 1
		total += l
		if l > s.MaxLen {
			s.MaxLen = l
		}
	}
	if s.Pairs > 0 {
		s.AvgLen = float64(total) / float64(s.Pairs)
	}
	return s
}

// SurvivingGraph computes R(G,ρ)/F: the directed graph on the nonfaulty
// nodes with an arc u→v for every pair whose route exists and avoids F.
// Faulty nodes are disabled in the result.
func (r *Routing) SurvivingGraph(faults *graph.Bitset) *graph.Digraph {
	d := graph.NewDigraph(r.g.N())
	if faults != nil {
		for _, f := range faults.Elements() {
			d.Disable(f)
		}
	}
	for k, p := range r.routes {
		if pathAffected(p, faults) {
			continue
		}
		d.AddArc(int(k.u), int(k.v))
	}
	return d
}

// pathAffected reports whether any node of p (endpoints included) is in F.
func pathAffected(p Path, faults *graph.Bitset) bool {
	if faults == nil {
		return false
	}
	for _, v := range p {
		if faults.Has(v) {
			return true
		}
	}
	return false
}

// AddEdgeRoutes installs the direct edge route between every pair of
// adjacent nodes (Component KERNEL 2 / CIRC 3 / T-CIRC 4 / B-POL 6 of
// the paper). Existing identical edge routes are tolerated; a
// conflicting longer route for an adjacent pair is reported as an error,
// since every construction in the paper requires the direct edge by the
// tree-routing shortcut rule.
func (r *Routing) AddEdgeRoutes() error {
	for _, e := range r.g.Edges() {
		if err := r.Set(Path{e[0], e[1]}); err != nil {
			return err
		}
		if !r.bidirectional {
			if err := r.Set(Path{e[1], e[0]}); err != nil {
				return err
			}
		}
	}
	return nil
}
