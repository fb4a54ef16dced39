package sym

import (
	"slices"
	"sort"

	"ftroute/internal/routing"
)

// Orbit pruning is only sound when the evaluated object commutes with
// the group: the objective must be constant on each fault-set orbit.
// The checks here test strict equivariance — route sets must map onto
// route sets pair by pair, failover tables entry by entry with backup
// ranks preserved — against a snapshot built once so that testing many
// group elements stays cheap; failover tables need no snapshot, their
// compiled layout already is one.

// RouteEnumerator is the slice of eval's RouteSource that symmetry
// checks need: enumerate every fixed route. *routing.Routing and
// *routing.MultiRouting both satisfy it.
type RouteEnumerator interface {
	EachRoute(fn func(u, v int, p routing.Path))
}

// RoutingCheck pre-indexes a route set for repeated Respects queries.
type RoutingCheck struct {
	pairs [][2]int32
	paths map[int64][][]int32 // packed (u,v) → that pair's routes
}

// NewRoutingCheck snapshots the routes of src.
func NewRoutingCheck(src RouteEnumerator) *RoutingCheck {
	c := &RoutingCheck{paths: make(map[int64][][]int32)}
	src.EachRoute(func(u, v int, p routing.Path) {
		k := pairPack(u, v)
		if len(c.paths[k]) == 0 {
			c.pairs = append(c.pairs, [2]int32{int32(u), int32(v)})
		}
		enc := make([]int32, len(p))
		for i, x := range p {
			enc[i] = int32(x)
		}
		c.paths[k] = append(c.paths[k], enc)
	})
	sort.Slice(c.pairs, func(i, j int) bool {
		if c.pairs[i][0] != c.pairs[j][0] {
			return c.pairs[i][0] < c.pairs[j][0]
		}
		return c.pairs[i][1] < c.pairs[j][1]
	})
	return c
}

func pairPack(u, v int) int64 { return int64(u)<<32 | int64(v) }

// Respects reports whether node permutation p maps the route set onto
// itself: for every routed pair (u,v), the p-image of its route
// multiset is exactly the route multiset of (p(u), p(v)). That makes
// every route-derived objective (surviving route graph, diameters)
// constant on fault-set orbits under p.
func (c *RoutingCheck) Respects(p []int) bool {
	var mapped []int32
	for _, pr := range c.pairs {
		list := c.paths[pairPack(int(pr[0]), int(pr[1]))]
		target := c.paths[pairPack(p[pr[0]], p[pr[1]])]
		if len(target) != len(list) {
			return false
		}
		for _, path := range list {
			mapped = mapped[:0]
			for _, x := range path {
				mapped = append(mapped, int32(p[x]))
			}
			if countPath(list, path) != countPath(target, mapped) {
				return false
			}
		}
	}
	return true
}

func countPath(list [][]int32, path []int32) int {
	count := 0
	for _, q := range list {
		if int32sEqual(q, path) {
			count++
		}
	}
	return count
}

func int32sEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// RoutingRespects is a one-shot NewRoutingCheck + Respects.
func RoutingRespects(src RouteEnumerator, p []int) bool {
	return NewRoutingCheck(src).Respects(p)
}

// TablesRespect reports whether node permutation p maps the tables t
// onto themselves rank for rank: entry (at,src,dst) with ranked hops
// h_0..h_k maps to an entry (p(at),p(src),p(dst)) with ranked hops
// p(h_0)..p(h_k). Rank order matters — a failover walk takes the first
// live entry — so this is exactly the condition making walk outcomes
// constant on fault-set orbits under p. It reads the tables' own
// layout: each image pair by PairIndex, each image entry by a lookup
// in that pair's run.
func TablesRespect(t *routing.FailoverTables, p []int) bool {
	lay := t.Layout()
	for i, pr := range t.Pairs() {
		q := int32(t.PairIndex(p[pr[0]], p[pr[1]]))
		if q < 0 {
			return false
		}
		for e := lay.EntOff[i]; e < lay.EntOff[i+1]; e++ {
			target := lay.Ranked(lay.Entry(q, int32(p[lay.EntAt[e]])))
			if !slices.EqualFunc(lay.Ranked(e), target, func(h, img int32) bool { return int32(p[h]) == img }) {
				return false
			}
		}
	}
	// p permutes triples, every entry found a distinct image entry, and
	// the entry count is fixed — so the image is onto.
	return true
}
