package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/netsim"
	"ftroute/internal/routing"
)

// A workload is one `ftroute` pipeline run on a seeded relabelling of a
// cube-connected-cycles graph. README.md gives the measured breakdown
// behind each choice.
type workload struct {
	name     string
	dim      int  // CCC dimension
	failover bool // `failover -mixed` instead of `tolerate -exhaustive -bounded`
	mixed    bool // tolerate over the node+link universe
	faults   int  // tolerate -faults, failover -cuts
	probeF   int  // budget of the serial-vs-parallel mixed search probe
	small    bool // test scale: no golden digest
}

var workloads = []workload{
	// The thousand-node anchor (n=896, 897 node sets). core.Circular is
	// ~80% of a query, so construction changes show here and search
	// kernel changes barely do.
	{name: "tolerate-ccc7", dim: 7, faults: 1, probeF: 1},
	// Serial branch-and-bound over 12,881 node sets: eval.Profile is
	// ~75% of a query.
	{name: "tolerate-ccc5-f2", dim: 5, faults: 2, probeF: 1},
	// The same engine over the 400-item mixed universe, searched twice:
	// 2-worker work stealing with the ordered merge, then ProfileMixed.
	{name: "tolerate-mixed-ccc5", dim: 5, mixed: true, faults: 2, probeF: 2},
	// The only path through Reinforce, CompileFailover, WalkEngine and
	// netsim; it bypasses eval.Engine.
	{name: "failover-ccc6", dim: 6, failover: true, faults: 2, probeF: 1},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// input relabels CCC(dim) by a permutation drawn from seed. The library
// sees only this graph.
func input(w workload, seed int64) (*graph.Graph, error) {
	fam, err := gen.CCC(w.dim)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(fam.N())
	g := graph.New(fam.N())
	for _, e := range fam.Edges() {
		if err := g.AddEdge(perm[e[0]], perm[e[1]]); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// answer is one query's printed output and what the checks need.
type answer struct {
	text  string
	sets  int              // fault sets the query's searches covered
	rt    *routing.Routing // the query's routing, for the probes
	check func() error     // run after the query's clock stops
}

// query replays the call sequence of cmd/ftroute for w on g, timing each
// call into the library on tr, and prints what the CLI prints.
func query(w workload, g *graph.Graph, seed int64, tr *tracer) (ans answer, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	var (
		rt  *routing.Routing
		inf *core.CircularInfo
	)
	tr.call("core.Circular", func() { rt, inf, err = core.Circular(g, core.Options{}) })
	if err != nil {
		return answer{}, err
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "circular routing: (6, %d)-tolerant, K=%d\n", inf.T, inf.K)
	if w.failover {
		ans, err = failover(w, g, rt, seed, tr, &out)
	} else {
		ans = tolerate(w, g, rt, inf.T, tr, &out)
	}
	ans.text, ans.rt = out.String(), rt
	return ans, err
}

// circularBound is the surviving diameter the circular routing
// guarantees for up to t node faults.
const circularBound = 6

func tolerate(w workload, g *graph.Graph, rt *routing.Routing, t int, tr *tracer, out *bytes.Buffer) answer {
	f := w.faults
	cfg := eval.Config{Mode: eval.Exhaustive, Bounded: true}
	var prof []int
	if !w.mixed {
		tr.call("eval.Profile", func() { prof = eval.Profile(rt, f, cfg) })
		fmt.Fprintf(out, "worst-case surviving diameter by fault count (bound %d for f <= %d):\n", circularBound, t)
		for k, d := range prof {
			status := ""
			if d < 0 {
				status = "  DISCONNECTED"
			} else if k <= t && d > circularBound {
				status = "  EXCEEDS BOUND"
			}
			fmt.Fprintf(out, "  |F| = %d: %s%s\n", k, diam(d), status)
		}
		return answer{sets: countSets(g.N(), f), check: func() error {
			for k, d := range prof {
				if k <= t && (d < 0 || d > circularBound) {
					return fmt.Errorf("|F| = %d: diameter %s breaks the (%d, %d) bound", k, diam(d), circularBound, t)
				}
			}
			return nil
		}}
	}
	var res eval.MixedResult
	tr.call("eval.MaxDiameterMixedParallel", func() { res = eval.MaxDiameterMixedParallel(rt, f, cfg, 0) })
	fmt.Fprintf(out, "worst case over mixed node+link fault sets of total size <= %d (bound %d for node faults <= %d):\n", f, circularBound, t)
	if res.Disconnected {
		fmt.Fprintf(out, "  disconnected by nodes %v, links %v (%d sets evaluated)\n",
			res.WorstNodeFaults, res.WorstEdgeFaults, res.Evaluated)
	} else {
		fmt.Fprintf(out, "  surviving diameter %d (worst nodes %v, links %v; %d sets evaluated)\n",
			res.MaxDiameter, res.WorstNodeFaults, res.WorstEdgeFaults, res.Evaluated)
	}
	tr.call("eval.ProfileMixed", func() { prof = eval.ProfileMixed(rt, f, cfg) })
	fmt.Fprintf(out, "worst-case surviving diameter by exact mixed fault-set size:\n")
	for k, d := range prof {
		status := ""
		if d < 0 {
			status = "  DISCONNECTED"
		}
		fmt.Fprintf(out, "  |F|+|E| = %d: %s%s\n", k, diam(d), status)
	}
	universe := countSets(g.N()+g.M(), f)
	return answer{sets: res.Evaluated + universe, check: func() error {
		if res.Evaluated != universe {
			return fmt.Errorf("mixed search evaluated %d sets, the universe has %d", res.Evaluated, universe)
		}
		disc := slices.Contains(prof, -1)
		if disc != res.Disconnected || (!disc && slices.Max(prof) != res.MaxDiameter) {
			return fmt.Errorf("profile %v disagrees with the search's %v", prof, res)
		}
		return nil
	}}
}

// The failover subcommand's defaults, which the workload keeps.
const (
	backups       = 2
	retries       = 2
	messages      = 300
	adversarySets = 200
)

func failover(w workload, g *graph.Graph, rt *routing.Routing, seed int64, tr *tracer, out *bytes.Buffer) (answer, error) {
	var (
		plain, reinforced *routing.FailoverTables
		m                 *routing.MultiRouting
		err               error
	)
	tr.call("routing.FailoverFromRouting", func() { plain = routing.FailoverFromRouting(rt) })
	tr.call("routing.Reinforce", func() { m, err = routing.Reinforce(rt, backups) })
	if err != nil {
		return answer{}, err
	}
	tr.call("routing.CompileFailover", func() { reinforced = routing.CompileFailover(m) })
	fmt.Fprintf(out, "tables: plain %d entries (rank 1), reinforced %d entries (rank <= %d)\n",
		plain.Entries(), reinforced.Entries(), reinforced.MaxRank())
	cfg := eval.Config{Mode: eval.Sampled, Samples: adversarySets, Greedy: true, Seed: seed}
	var pw, rw eval.MixedCutResult
	var under eval.CutStats
	tr.call("eval.WorstMixedFaultsParallel.plain", func() { pw = eval.WorstMixedFaultsParallel(plain, g, w.faults, cfg, 0) })
	tr.call("eval.WorstMixedFaultsParallel.reinforced", func() { rw = eval.WorstMixedFaultsParallel(reinforced, g, w.faults, cfg, 0) })
	fmt.Fprintf(out, "adversary (sampled+greedy+concentrator, mixed node+link budget %d):\n", w.faults)
	fmt.Fprintf(out, "  plain:      %s\n", pw)
	fmt.Fprintf(out, "  reinforced: %s\n", rw)
	tr.call("eval.EvaluateMixedFaults", func() { under = eval.EvaluateMixedFaults(reinforced, pw.WorstNodes, pw.WorstCuts) })
	fmt.Fprintf(out, "  reinforced under plain's worst mixed set: %s\n", under)

	var schedule []netsim.FaultEvent
	for _, v := range pw.WorstNodes {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: messages / 3, Node: v},
			netsim.FaultEvent{AfterMessage: 2 * messages / 3, Node: v, Repair: true})
	}
	for _, e := range pw.WorstCuts {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: messages / 3, Link: true, U: e.U, V: e.V},
			netsim.FaultEvent{AfterMessage: 2 * messages / 3, Link: true, U: e.U, V: e.V, Repair: true})
	}
	wl := netsim.Workload{Messages: messages, Seed: seed}
	fmt.Fprintf(out, "simulation (%d messages, faults F=%v E=%v injected at %d, repaired at %d, retries %d):\n",
		messages, pw.WorstNodes, pw.WorstCuts, messages/3, 2*messages/3, retries)
	var sims []netsim.FailoverStats
	for _, tc := range []struct {
		name   string
		tables *routing.FailoverTables
	}{{"plain", plain}, {"reinforced", reinforced}} {
		var st netsim.FailoverStats
		tr.call("netsim.RunFailoverWorkload", func() {
			nw := netsim.New(rt, netsim.Params{HopCost: 1, EndpointCost: 10})
			st, err = nw.RunFailoverWorkload(wl, schedule, netsim.FailoverParams{Tables: tc.tables, Retries: retries})
		})
		if err != nil {
			return answer{}, err
		}
		fmt.Fprintf(out, "  %-10s %s\n", tc.name, st)
		sims = append(sims, st)
	}
	return answer{sets: pw.Evaluated + rw.Evaluated + 1, check: func() error {
		for _, c := range []struct {
			what   string
			stats  eval.CutStats
			tables *routing.FailoverTables
		}{{"plain worst", pw.Stats, plain}, {"reinforced worst", rw.Stats, reinforced}, {"reinforced under plain's worst", under, reinforced}} {
			s := c.stats
			if s.Pairs != len(c.tables.Pairs()) || s.Delivered+s.Blackhole+s.Loop+s.Skipped != s.Pairs {
				return fmt.Errorf("%s: outcomes %v do not sum to the %d table pairs", c.what, s, len(c.tables.Pairs()))
			}
		}
		if again := eval.EvaluateMixedFaults(plain, pw.WorstNodes, pw.WorstCuts); again != pw.Stats {
			return fmt.Errorf("re-walking plain's worst set gives %v, the adversary reported %v", again, pw.Stats)
		}
		for _, s := range sims {
			if s.Messages != messages || s.Delivered+s.Blackhole+s.Loop+s.SkippedFault != s.Messages {
				return fmt.Errorf("simulation outcomes %v do not sum to %d messages", s, messages)
			}
		}
		return nil
	}}, nil
}

// countSets is Σ_{k≤f} C(u, k), the size of an exhaustive search's
// universe of fault sets.
func countSets(u, f int) int {
	total, c := 0, 1
	for k := 0; k <= f && k <= u; k++ {
		total += c
		c = c * (u - k) / (k + 1)
	}
	return total
}

func diam(d int) string {
	if d < 0 {
		return "inf"
	}
	return strconv.Itoa(d)
}
