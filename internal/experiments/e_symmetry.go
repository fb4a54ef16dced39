package experiments

import (
	"fmt"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/sym"
)

// runE20 reports the symmetry of the vertex-transitive families the
// paper names: the order of each graph's automorphism group and how its
// generators, lifted onto the fault items, split the node, link and
// mixed node+link universes into orbits.
func runE20(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E20",
		Title:      "Extension: automorphism groups and fault-item orbits of the symmetric families",
		PaperClaim: "the paper's worst-case bounds quantify over every fault set; on the symmetric families it names (cycles, CCC, hypercubes) the automorphisms split the fault items into few orbits",
		Header:     []string{"graph", "n", "m", "|Aut|", "orbits n/l/x"},
	}
	type item struct {
		name string
		g    *graph.Graph
	}
	items := []item{
		{"cycle C9", must(gen.Cycle(9))},
		{"hypercube Q3", must(gen.Hypercube(3))},
		{"CCC(3)", must(gen.CCC(3))},
	}
	if scale == Full {
		items = append(items,
			item{"hypercube Q4", must(gen.Hypercube(4))},
			item{"CCC(4)", must(gen.CCC(4))},
		)
	}
	for _, it := range items {
		g := it.g
		gr := sym.Automorphisms(g)
		elems := sym.Elements(gr.N, gr.Gens, sym.ElementCap)
		if elems == nil {
			return nil, fmt.Errorf("E20 %s: automorphism group over element cap", it.name)
		}
		// A lift maps nodes to nodes, so the first n mixed items hold
		// exactly the node orbits.
		gens, ok := graph.NewItems(g).Lift(gr.Gens, true, true)
		if !ok {
			return nil, fmt.Errorf("E20 %s: automorphism does not lift to links", it.name)
		}
		orbits := sym.Orbits(g.N()+g.M(), gens)
		nodeOrbits := sym.OrbitCount(orbits[:g.N()])
		t.AddRow(it.name, g.N(), g.M(), len(elems),
			fmt.Sprintf("%d/%d/%d", nodeOrbits, sym.OrbitCount(orbits)-nodeOrbits, sym.OrbitCount(orbits)))
	}
	t.Notes = append(t.Notes,
		"|Aut| is the full group order; orbits n/l/x count node, link and mixed-item orbits, from the generators lifted onto the items by graph.Items.Lift",
		"the paper's constructions anchor on a separator, concentrator or root pair they pick, so their routings keep almost none of this symmetry (docs/symmetry.md)")
	return t, nil
}
