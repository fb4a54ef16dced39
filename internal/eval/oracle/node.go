package oracle

import (
	"fmt"
	"math/rand"

	"ftroute/internal/graph"
)

// MaxDiameter searches node fault sets of size at most f, rebuilding the
// surviving graph per set. Disconnection dominates any finite diameter.
func MaxDiameter(s Survivor, f int, cfg Config) Result {
	if cfg.Mode == Exhaustive {
		return exhaustive(s, f)
	}
	return sampled(s, f, cfg)
}

// evalOne evaluates one fault set, folding it into res: fewer than two
// alive nodes contribute nothing, the first disconnection freezes the
// result, and the first set achieving the maximum is the witness.
func evalOne(s Survivor, faults *graph.Bitset, res *Result) {
	res.Evaluated++
	d := s.SurvivingGraph(faults)
	if d.EnabledCount() <= 1 {
		return
	}
	diam, ok := d.Diameter()
	if !ok {
		if !res.Disconnected {
			res.Disconnected = true
			res.WorstFaults = faults.Clone()
		}
		return
	}
	if !res.Disconnected && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstFaults = faults.Clone()
	}
}

// exhaustive enumerates all fault sets of size 0..f in preorder. A
// negative budget means the empty set only.
func exhaustive(s Survivor, f int) Result {
	if f < 0 {
		f = 0
	}
	n := s.Graph().N()
	res := Result{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	evalOne(s, faults, &res)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for v := start; v < n; v++ {
			faults.Add(v)
			evalOne(s, faults, &res)
			rec(v+1, left-1)
			faults.Remove(v)
		}
	}
	rec(0, f)
	return res
}

// sampled draws random fault sets of size exactly f (clamped to n) and
// optionally runs the greedy adversary.
func sampled(s Survivor, f int, cfg Config) Result {
	n := s.Graph().N()
	if f > n {
		f = n
	}
	if f < 0 {
		f = 0
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{WorstFaults: graph.NewBitset(n)}
	evalOne(s, graph.NewBitset(n), &res)
	for i := 0; i < cfg.samples(); i++ {
		evalOne(s, drawFaults(rng, n, f), &res)
	}
	if cfg.Greedy {
		greedy(s, f, &res)
	}
	return res
}

// greedy grows a fault set one node at a time, at each step keeping the
// node whose addition maximizes the surviving diameter (preferring
// disconnection, ties to the lowest node).
func greedy(s Survivor, f int, res *Result) {
	n := s.Graph().N()
	faults := graph.NewBitset(n)
	for round := 0; round < f; round++ {
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := 0; v < n; v++ {
			if faults.Has(v) {
				continue
			}
			faults.Add(v)
			res.Evaluated++
			d := s.SurvivingGraph(faults)
			if d.EnabledCount() > 1 {
				diam, ok := d.Diameter()
				disc := !ok
				if disc && !bestDisc {
					bestV, bestDiam, bestDisc = v, diam, true
				} else if !disc && !bestDisc && diam > bestDiam {
					bestV, bestDiam = v, diam
				}
			}
			faults.Remove(v)
		}
		if bestV == -1 {
			break
		}
		faults.Add(bestV)
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstFaults = faults.Clone()
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstFaults = faults.Clone()
		}
	}
}

// CheckTolerance verifies a (d, f)-tolerance claim through MaxDiameter,
// reporting the globally worst set on failure.
func CheckTolerance(s Survivor, d, f int, cfg Config) error {
	res := MaxDiameter(s, f, cfg)
	if res.Disconnected {
		return fmt.Errorf("eval: fault set %v disconnects the surviving graph (claimed (%d,%d)-tolerant)", res.WorstFaults, d, f)
	}
	if res.MaxDiameter > d {
		return fmt.Errorf("eval: fault set %v gives diameter %d (claimed (%d,%d)-tolerant)", res.WorstFaults, res.MaxDiameter, d, f)
	}
	return nil
}

// Profile reports, for each fault count 0..f, the worst surviving
// diameter (-1 encodes disconnection).
func Profile(s Survivor, f int, cfg Config) []int {
	out := make([]int, f+1)
	for k := 0; k <= f; k++ {
		var res Result
		if cfg.Mode == Exhaustive {
			res = exhaustiveExact(s, k)
		} else {
			res = sampled(s, k, cfg)
		}
		out[k] = res.MaxDiameter
		if res.Disconnected {
			out[k] = -1
		}
	}
	return out
}

// exhaustiveExact enumerates fault sets of size exactly k.
func exhaustiveExact(s Survivor, k int) Result {
	n := s.Graph().N()
	res := Result{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			evalOne(s, faults, &res)
			return
		}
		if n-start < left {
			return
		}
		for v := start; v < n; v++ {
			faults.Add(v)
			rec(v+1, left-1)
			faults.Remove(v)
		}
	}
	rec(0, k)
	return res
}

// ConcentratorAdversary enumerates every subset of size at most f of
// the target list, in list order, plus the empty set.
func ConcentratorAdversary(s Survivor, f int, targets []int) Result {
	n := s.Graph().N()
	res := Result{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	evalOne(s, faults, &res)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			faults.Add(targets[i])
			evalOne(s, faults, &res)
			rec(i+1, left-1)
			faults.Remove(targets[i])
		}
	}
	rec(0, f)
	return res
}

// componentwise walks comps over a materialized surviving graph,
// returning the worst in-component distance and whether some component
// holds a pair with no surviving path.
func componentwise(d *graph.Digraph, comps [][]int) (int, bool) {
	worst := 0
	shattered := false
	for _, comp := range comps {
		if len(comp) < 2 {
			continue
		}
		for _, u := range comp {
			dist := d.BFSDistances(u)
			for _, v := range comp {
				if v == u {
					continue
				}
				if dist[v] == graph.Unreachable {
					shattered = true
					continue
				}
				if dist[v] > worst {
					worst = dist[v]
				}
			}
		}
	}
	return worst, shattered
}

// BeyondTolerance evaluates every fault set of size exactly f and
// reports componentwise behavior per the paper's Open Problem 3.
func BeyondTolerance(s Survivor, f int) BeyondResult {
	g := s.Graph()
	n := g.N()
	res := BeyondResult{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	firstShatter := true
	leaf := func() {
		res.Evaluated++
		if g.IsConnected(faults) {
			res.GraphConnected++
		}
		worst, shattered := componentwise(s.SurvivingGraph(faults), graph.NewItems(g).Components(faults))
		if shattered {
			res.Shattered++
			if firstShatter {
				res.WorstFaults = faults.Clone()
				firstShatter = false
			}
		}
		if worst > res.WorstComponentDiameter {
			res.WorstComponentDiameter = worst
			if firstShatter {
				res.WorstFaults = faults.Clone()
			}
		}
	}
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			leaf()
			return
		}
		if n-start < left {
			return
		}
		for v := start; v < n; v++ {
			faults.Add(v)
			rec(v+1, left-1)
			faults.Remove(v)
		}
	}
	rec(0, f)
	return res
}
