package eval

import (
	"ftroute/internal/graph"
	"ftroute/internal/routing"
	"ftroute/internal/sym"
)

// This file builds the plans of Config.Pruned: orbit-pruned exhaustive
// enumeration. When a routing (or table set) is strictly equivariant
// under a subgroup H of the graph's automorphism group, every search
// objective in this package — surviving diameter, disconnection, walk
// outcome counts — is constant on each H-orbit of fault sets, so the
// exhaustive searches need only evaluate one canonical representative
// per orbit and weight it by the orbit size (see docs/symmetry.md for
// the soundness argument). The builders compute Aut(G) with the
// refinement search of internal/sym, keep exactly the elements that
// respect the evaluated object (respecting elements form a subgroup),
// and materialize the canonical representatives with multiplicities;
// they return nil whenever pruning cannot help — a trivial or over-cap
// group, nothing respecting — and the searches then fall back to the
// plain enumeration. The driver walks a plan with search.plan.

// prunedReps is a compiled orbit-pruned enumeration plan: the canonical
// representative fault sets (sorted item lists in lexicographic
// preorder) and their orbit sizes. The empty set is not included — the
// searches always fold it separately.
type prunedReps struct {
	sets  [][]int
	mults []int
}

// respectingElems computes the full element list of Aut(g) and filters
// it to the elements keep accepts. It returns nil when pruning cannot
// help: trivial group, more than sym.ElementCap elements, or no
// nontrivial respecting element. When every generator respects the
// evaluated object the whole generated group does, so one keep check
// per generator replaces one per element.
func respectingElems(g *graph.Graph, keep func(p []int) bool) [][]int {
	gr := sym.Automorphisms(g)
	elems := sym.Elements(gr.N, gr.Gens, sym.ElementCap)
	if len(elems) <= 1 {
		return nil
	}
	for _, p := range gr.Gens {
		if !keep(p) {
			if elems = sym.Respecting(elems, keep); len(elems) <= 1 {
				return nil
			}
			break
		}
	}
	return elems
}

// reps builds the plan for sizes 1..f over the universe of g's nodes,
// links, or both: the enumerator runs over universe positions under the
// respecting node permutations lifted onto them, and each
// representative maps back to items. A failed lift aborts to the
// fallback.
func reps(g *graph.Graph, keep func(p []int) bool, f int, nodes, links bool) *prunedReps {
	elems := respectingElems(g, keep)
	if elems == nil {
		return nil
	}
	ix := graph.NewItems(g)
	lifted, ok := ix.Lift(elems, nodes, links)
	if !ok {
		return nil
	}
	items := ix.Universe(nodes, links)
	plan := &prunedReps{}
	if f > 0 {
		sym.NewEnumerator(len(items), lifted).Each(f, func(set []int, mult int) {
			rep := make([]int, len(set))
			for i, pos := range set {
				rep[i] = items[pos]
			}
			plan.sets = append(plan.sets, rep)
			plan.mults = append(plan.mults, mult)
		})
	}
	return plan
}

// routingReps is the node plan of routing s under budget f, over the
// mixed node+link universe with links.
func routingReps(s RouteSource, f int, links bool) *prunedReps {
	return reps(s.Graph(), sym.NewRoutingCheck(s).Respects, f, true, links)
}

// tableReps is the link-cut plan of tables t on g, over the mixed
// node+link universe with nodes.
func tableReps(t *routing.FailoverTables, g *graph.Graph, budget int, nodes bool) *prunedReps {
	return reps(g, func(p []int) bool { return sym.TablesRespect(t, p) }, budget, nodes, true)
}
