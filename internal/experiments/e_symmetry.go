package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"time"

	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
	"ftroute/internal/sym"
)

// runE20 measures automorphism-orbit pruning of the exhaustive mixed
// fault search. For each vertex-transitive family the shortest-path
// routing is transported to be strictly equivariant under a pair-free
// automorphism subgroup, the orbit enumerator counts canonical
// representatives against the full mixed universe of at most f failed
// nodes plus cut links, and MaxDiameterMixed runs once plainly and once
// with Config.Pruned — the two must agree bit for bit: diameter,
// disconnection, witness and (reconstructed) evaluated-set count. The
// target is >=10x fewer enumerated sets on CCC(4)'s 12,880-set mixed
// f=2 universe.
func runE20(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E20",
		Title:      "Extension: automorphism-orbit pruning of exhaustive mixed fault enumeration",
		PaperClaim: "the paper's worst-case bounds quantify over every fault set; on the symmetric families it names (cycles, CCC, hypercubes) fault sets fall into automorphism orbits, so an equivariant routing needs only one representative per orbit",
		Header:     []string{"graph", "n", "m", "|Aut|", "orbits n/l/x", "f", "sets", "reps", "factor", "plain ms", "pruned ms", "diam", "mixed profile"},
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
	const f = 2
	for _, it := range items {
		g := it.g
		r, err := routing.ShortestPath(g)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", it.name, err)
		}
		gr := sym.Automorphisms(g)
		elems := sym.Elements(gr.N, gr.Gens, sym.ElementCap)
		if elems == nil {
			return nil, fmt.Errorf("E20 %s: automorphism group over element cap", it.name)
		}
		free := sym.FreePairSubgroup(elems)
		tr, err := sym.TransportRouting(g, r, free)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: transport: %w", it.name, err)
		}
		// The subgroup pruning actually enumerates under: every group
		// element the transported routing commutes with, lifted to the
		// n+m mixed item universe. The orbit counts lift the full group;
		// a lift maps nodes to nodes, so the first n mixed items hold
		// exactly the node orbits.
		ix := graph.NewItems(g)
		mixed, ok := ix.Lift(sym.Respecting(elems, sym.NewRoutingCheck(tr).Respects), true, true)
		all, okAll := ix.Lift(elems, true, true)
		if !ok || !okAll {
			return nil, fmt.Errorf("E20 %s: automorphism does not lift to links", it.name)
		}
		orbits := sym.Orbits(g.N()+g.M(), all)
		nodeOrbits := sym.OrbitCount(orbits[:g.N()])
		reps, total := sym.NewEnumerator(g.N()+g.M(), mixed).Count(f)
		factor := float64(total) / float64(reps)
		t0 := time.Now()
		plain := eval.MaxDiameterMixed(tr, f, eval.Config{Mode: eval.Exhaustive})
		plainMS := time.Since(t0)
		t0 = time.Now()
		pruned := eval.MaxDiameterMixed(tr, f, eval.Config{Mode: eval.Exhaustive, Pruned: true})
		prunedMS := time.Since(t0)
		diam := diamCell(plain, pruned)
		if it.name == "CCC(4)" && factor < 10 {
			diam += " factor VIOLATED"
		}
		prof := eval.ProfileMixed(tr, f, eval.Config{Mode: eval.Exhaustive})
		t.AddRow(it.name, g.N(), g.M(), len(elems),
			fmt.Sprintf("%d/%d/%d", nodeOrbits, sym.OrbitCount(orbits)-nodeOrbits, sym.OrbitCount(orbits)),
			f, total, reps, fmt.Sprintf("%.1fx", factor),
			msCell(plainMS), msCell(prunedMS), diam, profCell(prof))
	}
	t.Notes = append(t.Notes,
		"routing = shortest paths transported to commute with a pair-free automorphism subgroup (sym.TransportRouting); |Aut| is the full group order, orbits n/l/x count node, link and mixed-item orbits under it",
		"sets = non-empty mixed fault sets of size <= f (nodes + cut links combined); reps = canonical lex-min orbit representatives the pruned search walks; factor = sets/reps",
		"diam compares the plain and Config.Pruned exhaustive searches: worst surviving diameter, disconnection flag and evaluated-set count must match bit for bit (ok = they do; any divergence is flagged as a violated bound)",
		"mixed profile = worst surviving diameter by exact fault-set size 0..f (ProfileMixed; inf = disconnected)",
		"wall-clock columns vary run to run and machine to machine; set counts, factors and diameters are deterministic")
	return t, nil
}

// diamCell renders the plain/pruned agreement check: the worst diameter
// (inf when disconnected) plus ok, or VIOLATED when the two results
// differ in anything, witness included.
func diamCell(plain, pruned eval.MixedResult) string {
	d := plain.MaxDiameter
	if plain.Disconnected {
		d = -1
	}
	if !reflect.DeepEqual(plain, pruned) {
		return fmt.Sprintf("%s VIOLATED (pruned %v)", diamStr(d), pruned)
	}
	return diamStr(d) + " ok"
}

// msCell renders a duration as milliseconds with one decimal.
func msCell(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// profCell renders a ProfileMixed slice as d0/d1/.../df.
func profCell(prof []int) string {
	parts := make([]string, len(prof))
	for i, d := range prof {
		parts[i] = diamStr(d)
	}
	return strings.Join(parts, "/")
}
