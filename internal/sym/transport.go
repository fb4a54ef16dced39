package sym

import (
	"fmt"
	"sort"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// TransportRouting builds a routing on g that is strictly equivariant
// under the subgroup given by elems (full element list, identity
// included): the routed pairs of r are closed into orbits, each orbit's
// lexicographically smallest pair keeps its route from r, and every
// other pair in the orbit gets the transported image of that route.
// The result routes exactly the orbit closure of r's pairs.
//
// It errors when an orbit's representative pair is not routed in r, or
// when two group elements transport different routes to the same pair —
// which cannot happen when the subgroup acts freely on ordered pairs
// (see FreePairSubgroup). Such a routing passes RoutingCheck.Respects
// for every element of the subgroup, so the eval Pruned option engages.
func TransportRouting(g *graph.Graph, r *routing.Routing, elems [][]int) (*routing.Routing, error) {
	var pairs [][2]int
	r.EachRoute(func(u, v int, _ routing.Path) {
		pairs = append(pairs, [2]int{u, v})
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	out := routing.New(g)
	done := make(map[int64]bool, len(pairs))
	for _, pr := range pairs {
		u, v := pr[0], pr[1]
		if done[pairPack(u, v)] {
			continue
		}
		// Orbit representative: the lexicographically smallest image.
		ru, rv := u, v
		for _, h := range elems {
			hu, hv := h[u], h[v]
			if hu < ru || (hu == ru && hv < rv) {
				ru, rv = hu, hv
			}
		}
		path, ok := r.Get(ru, rv)
		if !ok {
			return nil, fmt.Errorf("sym: orbit representative (%d,%d) of routed pair (%d,%d) is not routed", ru, rv, u, v)
		}
		for _, h := range elems {
			mapped := make(routing.Path, len(path))
			for i, x := range path {
				mapped[i] = h[x]
			}
			done[pairPack(mapped.Src(), mapped.Dst())] = true
			if old, exists := out.Get(mapped.Src(), mapped.Dst()); exists {
				if !old.Equal(mapped) {
					return nil, fmt.Errorf("sym: transport conflict on pair (%d,%d): %v vs %v (pair stabilizer not free)",
						mapped.Src(), mapped.Dst(), old, mapped)
				}
				continue
			}
			if err := out.Set(mapped); err != nil {
				return nil, fmt.Errorf("sym: transported route invalid: %w", err)
			}
		}
	}
	return out, nil
}

// FreePairSubgroup greedily assembles the largest subgroup it finds
// inside elems whose non-identity elements each fix at most one node —
// exactly the condition for acting freely on ordered pairs of distinct
// nodes, which makes TransportRouting conflict-free. elems should be a
// full element list (see Elements); the result is a sorted element
// list, at minimum {identity}.
func FreePairSubgroup(elems [][]int) [][]int {
	if len(elems) == 0 {
		return nil
	}
	n := len(elems[0])
	inGroup := make(map[string]bool, len(elems))
	for _, p := range elems {
		inGroup[permKey(p)] = true
	}
	sub := [][]int{Identity(n)}
	have := map[string]bool{permKey(sub[0]): true}
	for _, cand := range elems {
		if have[permKey(cand)] || !pairFree(cand) {
			continue
		}
		trial := closure(append(append([][]int{}, sub...), cand), inGroup, len(elems))
		if trial == nil {
			continue
		}
		free := true
		for _, p := range trial {
			if !pairFree(p) {
				free = false
				break
			}
		}
		if !free {
			continue
		}
		sub = trial
		have = make(map[string]bool, len(sub))
		for _, p := range sub {
			have[permKey(p)] = true
		}
	}
	return sub
}

// pairFree reports whether p is the identity or fixes at most one node.
func pairFree(p []int) bool {
	fixed, moved := 0, false
	for i, v := range p {
		if i == v {
			fixed++
		} else {
			moved = true
		}
	}
	return !moved || fixed <= 1
}
