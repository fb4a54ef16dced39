// Command ftroute is a command-line front end to the fault-tolerant
// routing library.
//
// Usage:
//
//	ftroute info  -graph <spec>
//	ftroute plan  -graph <spec>
//	ftroute route -graph <spec> [-construction auto|kernel|circular|tricircular|bipolar|bipolar-bi]
//	ftroute orbits -graph <spec>
//	ftroute tolerate -graph <spec> [-construction ...] [-faults k] [-samples n] [-seed s] [-exhaustive] [-mixed]
//	ftroute simulate -graph <spec> [-construction ...] [-faults k] [-samples n] [-seed s]
//	ftroute failover -graph <spec> [-construction ...] [-cuts k] [-backups b] [-retries r] [-messages n] [-samples n] [-seed s] [-exhaustive] [-mixed] [-lambda w]
//	ftroute export   -graph <spec> [-construction ...] -table routing.json
//	ftroute check    -graph <spec> -table routing.json -bound d [-faults k] [-samples n] [-seed s] [-exhaustive]
//
// Each subcommand rejects a flag it does not read, one not on its
// usage line above. The -bounded flag is the exception: every
// subcommand accepts it and does nothing with it, since the exhaustive
// diameter searches always run branch and bound. Every subcommand
// rejects a -cuts, -backups or -retries below 0 and a -samples or
// -messages below 1.
//
// All sampled adversaries and simulated workloads draw their randomness
// from -seed (default 1), so any run reproduces end to end from the
// command line.
//
// Graph specs (internal/gen's Parse; cmd/ftgen reads the same ones):
//
//	cycle:N            cycle on N nodes (connectivity 2)
//	path:N             path on N nodes
//	wheel:N            wheel on N nodes, hub included (connectivity 3)
//	grid:RxC           R-by-C grid (planar)
//	torus:RxC          R-by-C torus (connectivity 4)
//	hypercube:N        N-dimensional hypercube
//	ccc:N              cube-connected cycles of dimension N
//	butterfly:N        wrapped butterfly of dimension N
//	debruijn:N         binary de Bruijn graph of dimension N
//	harary:KxN         Harary graph H(K,N) (connectivity K)
//	gp:NxK             generalized Petersen graph GP(N,K)
//	petersen           the Petersen graph
//	icosahedron        the icosahedron (planar, connectivity 5)
//	gnp:N:P:SEED       Erdős–Rényi G(N,P)
//	regular:N:D:SEED   random D-regular graph
//	file:PATH          edge-list file (cmd/ftgen writes them)
//
// Examples:
//
//	ftroute info -graph ccc:4
//	ftroute tolerate -graph cycle:45 -construction tricircular -exhaustive
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"

	"ftroute"
	"ftroute/internal/connectivity"
	"ftroute/internal/gen"
	"ftroute/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftroute:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: ftroute <info|plan|route|orbits|tolerate|simulate|failover|export|check> -graph <spec> [flags]")

func run(args []string) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		graphSpec    = fs.String("graph", "", "graph specification (see command doc)")
		construction = fs.String("construction", "auto", "auto|kernel|circular|tricircular|bipolar|bipolar-bi|shortest")
		faults       = fs.Int("faults", -1, "tolerate/simulate/check: fault budget (default: tolerance t)")
		samples      = fs.Int("samples", 200, "random fault sets when not exhaustive")
		exhaustive   = fs.Bool("exhaustive", false, "enumerate all fault sets (exponential)")
		mixed        = fs.Bool("mixed", false, "tolerate/failover: spend the fault budget on nodes and links combined")
		lambda       = fs.Float64("lambda", 0, "failover -mixed: weight of skipped pairs in the adversary objective disrupted+lambda*skipped")
		table        = fs.String("table", "", "routing-table file for export/check")
		bound        = fs.Int("bound", -1, "diameter bound to check (default: construction's bound)")
		cuts         = fs.Int("cuts", 2, "failover: adversary's link-cut budget")
		backups      = fs.Int("backups", 2, "failover: link-disjoint backup routes per pair")
		retries      = fs.Int("retries", 2, "failover: walk restarts allowed per message in the simulation")
		messages     = fs.Int("messages", 300, "failover: messages in the fault-injection workload")
		seed         = fs.Int64("seed", 1, "RNG seed for sampled adversaries and simulated workloads")
	)
	fs.Bool("bounded", false, "no-op, accepted for compatibility: every exhaustive diameter search already runs branch and bound (see docs/perf.md)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	for _, f := range []struct {
		name   string
		value  int
		least  int
		phrase string
	}{
		{"cuts", *cuts, 0, "non-negative"}, {"backups", *backups, 0, "non-negative"}, {"retries", *retries, 0, "non-negative"},
		{"samples", *samples, 1, "positive"}, {"messages", *messages, 1, "positive"},
	} {
		if f.value < f.least {
			return fmt.Errorf("-%s must be %s, got %d", f.name, f.phrase, f.value)
		}
	}
	if _, ok := constructions[*construction]; !ok && *construction != "auto" && *construction != "shortest" {
		return fmt.Errorf("unknown construction %q", *construction)
	}
	if read, ok := reads[cmd]; ok {
		var unread error
		fs.Visit(func(f *flag.Flag) {
			if unread == nil && f.Name != "bounded" && !slices.Contains(read, f.Name) {
				unread = fmt.Errorf("%s takes no -%s flag", cmd, f.Name)
			}
		})
		if unread != nil {
			return unread
		}
	}
	if *graphSpec == "" {
		return errUsage
	}
	g, err := gen.Parse(*graphSpec)
	if err != nil {
		return err
	}
	switch cmd {
	case "info":
		return info(g)
	case "plan":
		return plan(g)
	case "route":
		_, err := build(g, *construction)
		return err
	case "orbits":
		return orbits(g)
	case "tolerate":
		return tolerate(g, *construction, *faults, *samples, *seed, *exhaustive, *mixed)
	case "simulate":
		return simulate(g, *construction, *faults, *samples, *seed)
	case "failover":
		return failover(g, *construction, *cuts, *backups, *retries, *messages, *samples, *seed, *exhaustive, *mixed, *lambda)
	case "export":
		return export(g, *construction, *table)
	case "check":
		return check(g, *table, *bound, *faults, *samples, *seed, *exhaustive)
	default:
		return fmt.Errorf("%w: unknown subcommand %q", errUsage, cmd)
	}
}

// reads lists the flags each subcommand reads, as its call in run's
// dispatch passes them; run rejects any other flag set on the command
// line, except -bounded.
var reads = map[string][]string{
	"info":     {"graph"},
	"plan":     {"graph"},
	"route":    {"graph", "construction"},
	"orbits":   {"graph"},
	"tolerate": {"graph", "construction", "faults", "samples", "seed", "exhaustive", "mixed"},
	"simulate": {"graph", "construction", "faults", "samples", "seed"},
	"failover": {"graph", "construction", "cuts", "backups", "retries", "messages", "samples", "seed", "exhaustive", "mixed", "lambda"},
	"export":   {"graph", "construction", "table"},
	"check":    {"graph", "table", "bound", "faults", "samples", "seed", "exhaustive"},
}

// simulate builds the requested routing, fails `faults` spread-out nodes
// and runs a message workload of `samples` sends, printing delivery
// statistics and the route-counter broadcast result.
func simulate(g *ftroute.Graph, construction string, faults, samples int, seed int64) error {
	p, err := build(g, construction)
	if err != nil {
		return err
	}
	if faults < 0 {
		faults = p.T
	}
	nw := netsim.New(p.Routing, netsim.Params{HopCost: 1, EndpointCost: 10})
	stride := max(1, g.N()/(faults+1))
	var failed []int
	for i := 1; i <= faults && len(failed) < g.N()-2; i++ {
		v := (i * stride) % g.N()
		nw.Fail(v)
		failed = append(failed, v)
	}
	fmt.Printf("failed nodes: %v\n", failed)
	stats, err := nw.RunWorkload(netsim.Workload{Messages: samples, Seed: seed}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s\n", stats)
	diam, connected := nw.SurvivingGraph().Diameter()
	if !connected {
		fmt.Println("surviving route graph: disconnected")
		return nil
	}
	fmt.Printf("surviving route graph diameter: %d\n", diam)
	origin := 0
	for nw.Faults().Has(origin) {
		origin++
	}
	bc, err := nw.Broadcast(origin, diam)
	if err != nil {
		return err
	}
	fmt.Printf("broadcast from %d with bound %d: reached %d nodes (all=%v), max counter %d\n",
		origin, diam, len(bc.Reached), bc.AllReached, bc.MaxCounter)
	return nil
}

// failover compiles the requested routing to static-failover tables,
// both plain (rank-1) and reinforced with link-disjoint backups, runs
// the packet-level adversary against both — over link cuts only, or
// with -mixed over the paper's literal fault model of failed nodes and
// links combined — and then replays the plain tables' worst fault set
// as a mid-run fault-injection in the simulator: the faults land a
// third of the way through the workload and are repaired at two
// thirds, with each stuck message retrying from its stuck node.
func failover(g *ftroute.Graph, construction string, cuts, backups, retries, messages, samples int, seed int64, exhaustive, mixed bool, lambda float64) error {
	if math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return fmt.Errorf("-lambda must be finite, got %v", lambda)
	}
	p, err := build(g, construction)
	if err != nil {
		return err
	}
	plain := ftroute.FailoverFromRouting(p.Routing)
	m, err := ftroute.Reinforce(p.Routing, backups)
	if err != nil {
		return err
	}
	reinforced := ftroute.CompileFailover(m)
	fmt.Printf("tables: plain %d entries (rank 1), reinforced %d entries (rank <= %d)\n",
		plain.Entries(), reinforced.Entries(), reinforced.MaxRank())
	cfg := ftroute.EvalConfig{Mode: ftroute.Sampled, Samples: samples, Greedy: true, Seed: seed}
	mode := "sampled+greedy+concentrator"
	if exhaustive {
		cfg = ftroute.EvalConfig{Mode: ftroute.Exhaustive}
		mode = "exhaustive"
	}
	cfg.SkippedWeight = lambda
	var worstNodes []int
	var worstCuts []ftroute.EdgeFault
	if mixed {
		pw := ftroute.WorstMixedFaultsParallel(plain, g, cuts, cfg, 0)
		rw := ftroute.WorstMixedFaultsParallel(reinforced, g, cuts, cfg, 0)
		if lambda != 0 {
			fmt.Printf("adversary (%s, mixed node+link budget %d, objective disrupted+%g*skipped):\n", mode, cuts, lambda)
		} else {
			fmt.Printf("adversary (%s, mixed node+link budget %d):\n", mode, cuts)
		}
		fmt.Printf("  plain:      %s\n", pw)
		fmt.Printf("  reinforced: %s\n", rw)
		fmt.Printf("  reinforced under plain's worst mixed set: %s\n",
			ftroute.EvaluateMixedFaults(reinforced, pw.WorstNodes, pw.WorstCuts))
		worstNodes, worstCuts = pw.WorstNodes, pw.WorstCuts
	} else {
		pw := ftroute.WorstLinkCutsParallel(plain, g, cuts, cfg, 0)
		rw := ftroute.WorstLinkCutsParallel(reinforced, g, cuts, cfg, 0)
		fmt.Printf("adversary (%s, budget %d):\n", mode, cuts)
		fmt.Printf("  plain:      worst cut %v: %v (%d sets)\n", pw.WorstCuts, pw.Stats, pw.Evaluated)
		fmt.Printf("  reinforced: worst cut %v: %v (%d sets)\n", rw.WorstCuts, rw.Stats, rw.Evaluated)
		fmt.Printf("  reinforced under plain's worst cut: %s\n", ftroute.EvaluateMixedFaults(reinforced, nil, pw.WorstCuts))
		worstCuts = pw.WorstCuts
	}
	var schedule []netsim.FaultEvent
	for _, v := range worstNodes {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: messages / 3, Node: v},
			netsim.FaultEvent{AfterMessage: 2 * messages / 3, Node: v, Repair: true})
	}
	for _, e := range worstCuts {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: messages / 3, Link: true, U: e.U, V: e.V},
			netsim.FaultEvent{AfterMessage: 2 * messages / 3, Link: true, U: e.U, V: e.V, Repair: true})
	}
	wl := netsim.Workload{Messages: messages, Seed: seed}
	if mixed {
		fmt.Printf("simulation (%d messages, faults F=%v E=%v injected at %d, repaired at %d, retries %d):\n",
			messages, worstNodes, worstCuts, messages/3, 2*messages/3, retries)
	} else {
		fmt.Printf("simulation (%d messages, cut %v injected at %d, repaired at %d, retries %d):\n",
			messages, worstCuts, messages/3, 2*messages/3, retries)
	}
	for _, tc := range []struct {
		name   string
		tables *ftroute.FailoverTables
	}{{"plain", plain}, {"reinforced", reinforced}} {
		nw := netsim.New(p.Routing, netsim.Params{HopCost: 1, EndpointCost: 10})
		stats, err := nw.RunFailoverWorkload(wl, schedule, netsim.FailoverParams{Tables: tc.tables, Retries: retries})
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %s\n", tc.name, stats)
	}
	return nil
}

// export builds a routing and writes its JSON table to -table (or
// stdout), completing the paper's "compute the table once, distribute
// it" workflow.
func export(g *ftroute.Graph, construction, table string) error {
	p, err := build(g, construction)
	if err != nil {
		return err
	}
	w := os.Stdout
	if table != "" {
		f, err := os.Create(table)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := p.Routing.WriteTo(w); err != nil {
		return err
	}
	if table != "" {
		fmt.Printf("wrote %d routes to %s\n", p.Routing.Len(), table)
	}
	return nil
}

// check loads a previously exported routing table, re-validates it
// against the graph and verifies a (bound, faults) tolerance claim.
func check(g *ftroute.Graph, table string, bound, faults, samples int, seed int64, exhaustive bool) error {
	if table == "" {
		return fmt.Errorf("check requires -table")
	}
	data, err := os.ReadFile(table)
	if err != nil {
		return err
	}
	rt, err := ftroute.DecodeRoutingTable(g, data)
	if err != nil {
		return fmt.Errorf("table rejected: %w", err)
	}
	if bound < 0 {
		return fmt.Errorf("check requires -bound")
	}
	if faults < 0 {
		k, err := kappa(g)
		if err != nil {
			return err
		}
		faults = k - 1
	}
	cfg := ftroute.EvalConfig{Mode: ftroute.Sampled, Samples: samples, Greedy: true, Seed: seed}
	mode := "sampled"
	if exhaustive {
		cfg = ftroute.EvalConfig{Mode: ftroute.Exhaustive}
		mode = "exhaustive"
	}
	if err := ftroute.CheckTolerance(rt, bound, faults, cfg); err != nil {
		return err
	}
	fmt.Printf("table %s verified (%s): surviving diameter <= %d for |F| <= %d\n", table, mode, bound, faults)
	return nil
}

func info(g *ftroute.Graph) error {
	fmt.Printf("nodes:        %d\n", g.N())
	fmt.Printf("edges:        %d\n", g.M())
	fmt.Printf("degree:       min %d, max %d, avg %.2f\n", g.MinDegree(), g.MaxDegree(), g.AverageDegree())
	if diam, ok := g.Diameter(nil); ok {
		fmt.Printf("diameter:     %d\n", diam)
	} else {
		fmt.Printf("diameter:     disconnected\n")
	}
	k, sep, err := ftroute.VertexConnectivity(g)
	if err != nil {
		fmt.Printf("connectivity: %d (complete graph)\n", k)
		return nil
	}
	fmt.Printf("connectivity: %d (tolerance t = %d), min separator %v\n", k, k-1, sep)
	nset := ftroute.NeighborhoodSet(g)
	fmt.Printf("neighborhood set (Lemma 15): %d nodes\n", len(nset))
	if tt, err := ftroute.FindTwoTrees(g); err == nil {
		fmt.Printf("two-trees property: yes, roots (%d, %d)\n", tt.R1, tt.R2)
	} else {
		fmt.Printf("two-trees property: no\n")
	}
	return nil
}

// orbits reports the graph's automorphism group and the orbits of its
// node, link and mixed node+link fault items (see docs/symmetry.md).
// The orbits need only the generators, so only the group's order is
// capped.
func orbits(g *ftroute.Graph) error {
	gr := ftroute.Automorphisms(g)
	order := fmt.Sprintf("order > %d", ftroute.GroupElementCap)
	if elems := ftroute.GroupElements(gr.N, gr.Gens, ftroute.GroupElementCap); elems != nil {
		order = fmt.Sprintf("order %d", len(elems))
	}
	fmt.Printf("automorphism group: %s (%d generators)\n", order, len(gr.Gens))
	// A lift maps nodes to nodes and links to links, so the first n
	// mixed items hold exactly the node orbits and the rest the links'.
	gens, ok := ftroute.NewItems(g).Lift(gr.Gens, true, true)
	if !ok {
		return fmt.Errorf("internal: automorphism does not permute the items")
	}
	orbits := ftroute.NodeOrbits(g.N()+g.M(), gens)
	nodes, mixed := ftroute.OrbitCount(orbits[:g.N()]), ftroute.OrbitCount(orbits)
	fmt.Printf("orbits: %d node, %d edge, %d mixed item\n", nodes, mixed-nodes, mixed)
	return nil
}

func plan(g *ftroute.Graph) error {
	p, err := ftroute.Auto(g, ftroute.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("construction: %s\n", p.Construction)
	fmt.Printf("guarantee:    surviving diameter <= %d for up to %d faults\n", p.Bound, p.T)
	fmt.Printf("direction:    bidirectional=%v\n", p.Bidirected)
	fmt.Printf("reason:       %s\n", p.Reason)
	st := p.Routing.Stats()
	fmt.Printf("routes:       %d ordered pairs, max length %d, avg length %.2f\n", st.Pairs, st.MaxLen, st.AvgLen)
	return nil
}

// kappa returns the vertex connectivity κ of g, which is n-1 for a
// complete graph.
func kappa(g *ftroute.Graph) (int, error) {
	k, _, err := ftroute.VertexConnectivity(g)
	if errors.Is(err, connectivity.ErrComplete) {
		err = nil
	}
	return k, err
}

// constructions maps each -construction name that ftroute.Build serves
// to its construction and the label of its summary line.
var constructions = map[string]struct {
	c     ftroute.Construction
	label string
}{
	"kernel":      {ftroute.ConstructionKernel, "kernel"},
	"circular":    {ftroute.ConstructionCircular, "circular"},
	"tricircular": {ftroute.ConstructionTriCircular, "tri-circular"},
	"bipolar":     {ftroute.ConstructionBipolarUni, "unidirectional bipolar"},
	"bipolar-bi":  {ftroute.ConstructionBipolarBi, "bidirectional bipolar"},
}

// build constructs the requested routing, prints a summary and returns
// its plan. The construction is auto, shortest or a name of the
// constructions table; run rejects any other before it dispatches. The
// shortest-path baseline has no designed bound: its plan has Bound 0
// and T = κ-1.
func build(g *ftroute.Graph, construction string) (*ftroute.Plan, error) {
	if c, ok := constructions[construction]; ok {
		p, err := ftroute.Build(g, c.c, ftroute.Options{})
		if err != nil {
			return nil, err
		}
		fmt.Printf("%s routing: (%d, %d)-tolerant, %s\n", c.label, p.Bound, p.T, p.Reason)
		return p, nil
	}
	if construction == "auto" {
		p, err := ftroute.Auto(g, ftroute.Options{})
		if err != nil {
			return nil, err
		}
		fmt.Printf("auto chose %s: (%d, %d)-tolerant — %s\n", p.Construction, p.Bound, p.T, p.Reason)
		return p, nil
	}
	r, err := ftroute.ShortestPathRouting(g)
	if err != nil {
		return nil, err
	}
	k, err := kappa(g)
	if err != nil {
		return nil, err
	}
	fmt.Printf("shortest-path routing (baseline): no designed tolerance, t=%d\n", k-1)
	return &ftroute.Plan{T: k - 1, Bidirected: r.Bidirectional(), Routing: r}, nil
}

func tolerate(g *ftroute.Graph, construction string, faults, samples int, seed int64, exhaustive, mixed bool) error {
	p, err := build(g, construction)
	if err != nil {
		return err
	}
	if faults < 0 {
		faults = p.T
	}
	cfg := ftroute.EvalConfig{Mode: ftroute.Sampled, Samples: samples, Greedy: true, Seed: seed}
	if exhaustive {
		cfg = ftroute.EvalConfig{Mode: ftroute.Exhaustive}
	}
	if mixed {
		res := ftroute.MaxDiameterUnderMixedFaultsParallel(p.Routing, faults, cfg, 0)
		fmt.Printf("worst case over mixed node+link fault sets of total size <= %d%s:\n", faults, boundClause(p, "node faults"))
		if res.Disconnected {
			fmt.Printf("  disconnected by nodes %v, links %v (%d sets evaluated)\n",
				res.WorstNodeFaults, res.WorstEdgeFaults, res.Evaluated)
		} else {
			fmt.Printf("  surviving diameter %d (worst nodes %v, links %v; %d sets evaluated)\n",
				res.MaxDiameter, res.WorstNodeFaults, res.WorstEdgeFaults, res.Evaluated)
		}
		fmt.Printf("worst-case surviving diameter by exact mixed fault-set size:\n")
		for k, d := range ftroute.MixedDiameterProfile(p.Routing, faults, cfg) {
			status := ""
			if d < 0 {
				status = "  DISCONNECTED"
			}
			fmt.Printf("  |F|+|E| = %d: %s%s\n", k, diam(d), status)
		}
		return nil
	}
	profile := ftroute.DiameterProfile(p.Routing, faults, cfg)
	fmt.Printf("worst-case surviving diameter by fault count%s:\n", boundClause(p, "f"))
	for k, d := range profile {
		status := ""
		if d < 0 {
			status = "  DISCONNECTED"
		} else if k <= p.T && d > p.Bound && p.Bound > 0 {
			status = "  EXCEEDS BOUND"
		}
		fmt.Printf("  |F| = %d: %s%s\n", k, diam(d), status)
	}
	return nil
}

// boundClause is the " (bound d for what <= t)" part of a tolerate
// header, empty for a routing with no designed bound.
func boundClause(p *ftroute.Plan, what string) string {
	if p.Bound == 0 {
		return ""
	}
	return fmt.Sprintf(" (bound %d for %s <= %d)", p.Bound, what, p.T)
}

func diam(d int) string {
	if d < 0 {
		return "inf"
	}
	return strconv.Itoa(d)
}
