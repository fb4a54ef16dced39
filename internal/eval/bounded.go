package eval

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
)

// This file implements Config.Bounded: branch-and-bound exhaustive
// adversary search. The plain searches compute the full diameter of
// every surviving graph; the bounded searches thread a best-so-far
// score through the enumeration (an atomic shared across workers in the
// parallel paths) and evaluate each fault set with the pivot-pruned
// diameterAbove kernel instead, so sets that cannot beat the incumbent
// cost ~2 BFS rather than n. Two invariants make the results
// bit-identical to the plain search:
//
//   - The skip threshold for a set is max(bestShared−1, localMax), never
//     bestShared itself. Ties with the global best are still evaluated
//     exactly, so the first set in enumeration order achieving the final
//     maximum always records an exact diameter and owns the witness,
//     under any parallel interleaving (the ordered merge then replays
//     sub-results in enumeration order, exactly like the plain search).
//   - Disconnection freezes a result in the plain search while the
//     enumeration keeps counting. The bounded search skips the frozen
//     remainder outright — no fault toggles, no BFS — and reconstructs
//     Evaluated combinatorially with countSets. In the parallel paths an
//     atomic earliest-disconnected-unit index lets workers turn whole
//     units after it into count-only no-ops; units before it still run,
//     because their own (enumeration-earlier) disconnection would win.
//
// Legacy Survivors without route enumeration ignore Bounded and take
// the plain path, as do the Sampled-mode searches (each sample is an
// independent SetFaults, so there is no enumeration tree to prune).

// diamBound is the shared best-so-far diameter: workers publish exact
// diameters as they find them and read the bound when folding. The zero
// value means "no incumbent yet" (Load−1 = −1 disables the skip test).
type diamBound struct{ v atomic.Int64 }

func (b *diamBound) Load() int { return int(b.v.Load()) }
func (b *diamBound) Max(d int) { casMax(&b.v, int64(d)) }

// casMax raises a to at least v.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// casMin lowers a to at most v.
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// countChoose is the binomial coefficient C(n, k), saturating at
// math.MaxInt. The running product after step i is C(n-k+i, i), always
// integral and never above C(n, k); each step multiplies into 128 bits
// before it divides, so every C(n, k) that fits in an int is exact.
// Freeze-skip counts subtrees it never walks, so a count beyond int64
// (C(5000, 6) already is) is reachable.
func countChoose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := uint64(1)
	for i := 1; i <= k; i++ {
		hi, lo := bits.Mul64(c, uint64(n-k+i))
		if hi >= uint64(i) { // the quotient needs more than 64 bits
			return math.MaxInt
		}
		if c, _ = bits.Div64(hi, lo, uint64(i)); c > math.MaxInt {
			return math.MaxInt
		}
	}
	return int(c)
}

// countSets counts the nonempty subsets of size at most left drawn from
// avail items — the number of fault sets in one enumeration subtree,
// used to reconstruct Evaluated when a frozen (disconnected) result
// skips the subtree without walking it. It saturates at math.MaxInt.
func countSets(avail, left int) int {
	total := 0
	for s := 1; s <= left && s <= avail; s++ {
		total = satAdd(total, countChoose(avail, s))
	}
	return total
}

// satAdd is a + b for non-negative counts, saturating at math.MaxInt.
func satAdd(a, b int) int {
	if a > math.MaxInt-b {
		return math.MaxInt
	}
	return a + b
}

// foldBounded is fold through the branch-and-bound kernel: identical
// res mutations, ~2 BFS instead of n when the set cannot beat
// max(best−1, res.MaxDiameter). Callers freeze-skip disconnected
// results, so a frozen res only needs its Evaluated count maintained.
func (e *Engine) foldBounded(res *Result, best *diamBound) { e.foldBoundedW(res, 1, best) }

// foldBoundedW is foldBounded counting the set for mult evaluations,
// the bounded counterpart of foldW for the orbit-pruned walks.
func (e *Engine) foldBoundedW(res *Result, mult int, best *diamBound) {
	res.Evaluated += mult
	if e.aliveCount <= 1 || res.Disconnected {
		return
	}
	limit := res.MaxDiameter
	if b := best.Load() - 1; b > limit {
		limit = b
	}
	diam, above, connected := e.diameterAbove(limit)
	if !connected {
		res.Disconnected = true
		res.WorstFaults = e.faults.Clone()
		return
	}
	if above && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstFaults = e.faults.Clone()
		best.Max(diam)
	}
}

// foldMixedBounded and foldMixedBoundedW are the mixed-universe
// counterparts of foldBounded/foldBoundedW.
func (e *Engine) foldMixedBounded(res *MixedResult, best *diamBound) {
	e.foldMixedBoundedW(res, 1, best)
}

func (e *Engine) foldMixedBoundedW(res *MixedResult, mult int, best *diamBound) {
	res.Evaluated += mult
	if e.aliveCount <= 1 || res.Disconnected {
		return
	}
	limit := res.MaxDiameter
	if b := best.Load() - 1; b > limit {
		limit = b
	}
	diam, above, connected := e.diameterAbove(limit)
	if !connected {
		res.Disconnected = true
		res.WorstNodeFaults = e.faults.Clone()
		res.WorstEdgeFaults = e.EdgeFaults()
		return
	}
	if above && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstNodeFaults = e.faults.Clone()
		res.WorstEdgeFaults = e.EdgeFaults()
		best.Max(diam)
	}
}

// exhaustiveBounded is the branch-and-bound exhaustive node-fault
// search, bit-identical to exhaustive on the engine path.
func (e *Engine) exhaustiveBounded(f int) Result {
	if f < 0 {
		f = 0
	}
	res := Result{WorstFaults: graph.NewBitset(e.n)}
	var best diamBound
	e.foldBounded(&res, &best)
	e.descendBounded(0, f, &res, &best)
	return res
}

// descendBounded is descend with the incumbent bound threaded through
// and frozen subtrees counted instead of walked.
func (e *Engine) descendBounded(start, left int, res *Result, best *diamBound) {
	if left == 0 {
		return
	}
	for v := start; v < e.n; v++ {
		if res.Disconnected {
			res.Evaluated = satAdd(res.Evaluated, countSets(e.n-v, left))
			return
		}
		e.AddFault(v)
		e.foldBounded(res, best)
		e.descendBounded(v+1, left-1, res, best)
		e.RemoveFault(v)
	}
}

// exhaustiveBoundedParallel is exhaustiveParallel with the shared
// incumbent bound and an earliest-disconnected-unit index: units after
// a disconnecting unit contribute only their combinatorial Evaluated
// count, because the ordered merge discards their scores anyway.
func (e *Engine) exhaustiveBoundedParallel(f, workers int) Result {
	n := e.n
	merged := Result{WorstFaults: graph.NewBitset(n)}
	var best diamBound
	e.foldBounded(&merged, &best)
	if f <= 0 || n == 0 {
		return merged
	}
	if merged.Disconnected {
		merged.Evaluated = satAdd(merged.Evaluated, countSets(n, f))
		return merged
	}
	if workers > n {
		workers = n
	}
	per := make([]Result, n)
	var nextUnit, discUnit atomic.Int64
	discUnit.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Engine
			for {
				v := int(nextUnit.Add(1)) - 1
				if v >= n {
					return
				}
				if int64(v) > discUnit.Load() {
					per[v] = Result{Evaluated: satAdd(1, countSets(n-v-1, f-1))}
					continue
				}
				if c == nil {
					c = e.Clone()
				}
				res := Result{WorstFaults: graph.NewBitset(n)}
				c.AddFault(v)
				c.foldBounded(&res, &best)
				c.descendBounded(v+1, f-1, &res, &best)
				c.RemoveFault(v)
				if res.Disconnected {
					casMin(&discUnit, int64(v))
				}
				per[v] = res
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrdered(&merged, r)
	}
	return merged
}

// exhaustiveExactBounded enumerates fault sets of size exactly k with
// the branch-and-bound kernel — the bounded path under Profile.
func (e *Engine) exhaustiveExactBounded(k int) Result {
	res := Result{WorstFaults: graph.NewBitset(e.n)}
	var best diamBound
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			e.foldBounded(&res, &best)
			return
		}
		if e.n-start < left {
			return
		}
		for v := start; v < e.n; v++ {
			if res.Disconnected {
				res.Evaluated = satAdd(res.Evaluated, countChoose(e.n-v, left))
				return
			}
			e.AddFault(v)
			rec(v+1, left-1)
			e.RemoveFault(v)
		}
	}
	rec(0, k)
	return res
}

// exhaustiveMixedBounded is exhaustiveBounded over the n+m mixed item
// universe.
func (e *Engine) exhaustiveMixedBounded(f int, edges [][2]int) MixedResult {
	if f < 0 {
		f = 0
	}
	res := MixedResult{WorstNodeFaults: graph.NewBitset(e.n)}
	var best diamBound
	e.foldMixedBounded(&res, &best)
	e.descendMixedBounded(0, f, edges, &res, &best)
	return res
}

// descendMixedBounded is descendMixed with the incumbent bound and
// frozen-subtree counting.
func (e *Engine) descendMixedBounded(start, left int, edges [][2]int, res *MixedResult, best *diamBound) {
	if left == 0 {
		return
	}
	items := e.n + len(edges)
	for v := start; v < items; v++ {
		if res.Disconnected {
			res.Evaluated = satAdd(res.Evaluated, countSets(items-v, left))
			return
		}
		e.toggleItem(v, edges, true)
		e.foldMixedBounded(res, best)
		e.descendMixedBounded(v+1, left-1, edges, res, best)
		e.toggleItem(v, edges, false)
	}
}

// exhaustiveMixedBoundedParallel is exhaustiveMixedParallel with the
// shared bound and earliest-disconnected-unit skipping.
func (e *Engine) exhaustiveMixedBoundedParallel(f, workers int, edges [][2]int) MixedResult {
	n := e.n
	items := n + len(edges)
	merged := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	var best diamBound
	e.foldMixedBounded(&merged, &best)
	if f <= 0 || items == 0 {
		return merged
	}
	if merged.Disconnected {
		merged.Evaluated = satAdd(merged.Evaluated, countSets(items, f))
		return merged
	}
	if workers > items {
		workers = items
	}
	per := make([]MixedResult, items)
	var nextUnit, discUnit atomic.Int64
	discUnit.Store(int64(items))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Engine
			for {
				v := int(nextUnit.Add(1)) - 1
				if v >= items {
					return
				}
				if int64(v) > discUnit.Load() {
					per[v] = MixedResult{Evaluated: satAdd(1, countSets(items-v-1, f-1))}
					continue
				}
				if c == nil {
					c = e.Clone()
				}
				res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
				c.toggleItem(v, edges, true)
				c.foldMixedBounded(&res, &best)
				c.descendMixedBounded(v+1, f-1, edges, &res, &best)
				c.toggleItem(v, edges, false)
				if res.Disconnected {
					casMin(&discUnit, int64(v))
				}
				per[v] = res
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixed(&merged, r)
	}
	return merged
}

// exhaustiveExactMixedBounded is exhaustiveExactBounded over the mixed
// item universe.
func (e *Engine) exhaustiveExactMixedBounded(k int, edges [][2]int) MixedResult {
	res := MixedResult{WorstNodeFaults: graph.NewBitset(e.n)}
	var best diamBound
	items := e.n + len(edges)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			e.foldMixedBounded(&res, &best)
			return
		}
		if items-start < left {
			return
		}
		for v := start; v < items; v++ {
			if res.Disconnected {
				res.Evaluated = satAdd(res.Evaluated, countChoose(items-v, left))
				return
			}
			e.toggleItem(v, edges, true)
			rec(v+1, left-1)
			e.toggleItem(v, edges, false)
		}
	}
	rec(0, k)
	return res
}

// evalPrunedBounded is evalPruned with the branch-and-bound kernel: a
// frozen result sums the remaining orbit sizes instead of walking the
// representative list.
func (e *Engine) evalPrunedBounded(plan *prunedReps, res *Result) {
	var best diamBound
	e.foldBounded(res, &best) // empty set
	toggle := func(v int, add bool) {
		if add {
			e.AddFault(v)
		} else {
			e.RemoveFault(v)
		}
	}
	var cur []int
	for i, set := range plan.sets {
		if res.Disconnected {
			for _, m := range plan.mults[i:] {
				res.Evaluated += m
			}
			break
		}
		cur = applyDiff(cur, set, toggle)
		e.foldBoundedW(res, plan.mults[i], &best)
	}
	for _, v := range cur {
		e.RemoveFault(v)
	}
}

// evalPrunedBoundedParallel is evalPrunedParallel with the shared bound
// and an earliest-disconnected-chunk index: chunks after it only sum
// their orbit sizes.
func (e *Engine) evalPrunedBoundedParallel(plan *prunedReps, workers int, res *Result) {
	var best diamBound
	e.foldBounded(res, &best) // empty set
	reps := len(plan.sets)
	if reps == 0 {
		return
	}
	if res.Disconnected {
		for _, m := range plan.mults {
			res.Evaluated += m
		}
		return
	}
	if workers > reps {
		workers = reps
	}
	chunk := planChunk(reps, workers)
	nchunks := (reps + chunk - 1) / chunk
	per := make([]Result, nchunks)
	var next, discChunk atomic.Int64
	discChunk.Store(int64(nchunks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Engine
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > reps {
					hi = reps
				}
				sub := Result{}
				if int64(ci) > discChunk.Load() {
					for _, m := range plan.mults[lo:hi] {
						sub.Evaluated += m
					}
					per[ci] = sub
					continue
				}
				if c == nil {
					c = e.Clone()
				}
				toggle := func(v int, add bool) {
					if add {
						c.AddFault(v)
					} else {
						c.RemoveFault(v)
					}
				}
				sub.WorstFaults = graph.NewBitset(e.n)
				var cur []int
				for i := lo; i < hi; i++ {
					if sub.Disconnected {
						for _, m := range plan.mults[i:hi] {
							sub.Evaluated += m
						}
						break
					}
					cur = applyDiff(cur, plan.sets[i], toggle)
					c.foldBoundedW(&sub, plan.mults[i], &best)
				}
				for _, v := range cur {
					c.RemoveFault(v)
				}
				if sub.Disconnected {
					casMin(&discChunk, int64(ci))
				}
				per[ci] = sub
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrdered(res, r)
	}
}

// evalPrunedMixedBounded is evalPrunedBounded over the mixed universe.
func (e *Engine) evalPrunedMixedBounded(plan *prunedReps, edges [][2]int, res *MixedResult) {
	var best diamBound
	e.foldMixedBounded(res, &best) // empty set
	toggle := func(v int, add bool) { e.toggleItem(v, edges, add) }
	var cur []int
	for i, set := range plan.sets {
		if res.Disconnected {
			for _, m := range plan.mults[i:] {
				res.Evaluated += m
			}
			break
		}
		cur = applyDiff(cur, set, toggle)
		e.foldMixedBoundedW(res, plan.mults[i], &best)
	}
	for _, v := range cur {
		e.toggleItem(v, edges, false)
	}
}

// evalPrunedMixedBoundedParallel is evalPrunedBoundedParallel over the
// mixed universe.
func (e *Engine) evalPrunedMixedBoundedParallel(plan *prunedReps, edges [][2]int, workers int, res *MixedResult) {
	var best diamBound
	e.foldMixedBounded(res, &best) // empty set
	reps := len(plan.sets)
	if reps == 0 {
		return
	}
	if res.Disconnected {
		for _, m := range plan.mults {
			res.Evaluated += m
		}
		return
	}
	if workers > reps {
		workers = reps
	}
	chunk := planChunk(reps, workers)
	nchunks := (reps + chunk - 1) / chunk
	per := make([]MixedResult, nchunks)
	var next, discChunk atomic.Int64
	discChunk.Store(int64(nchunks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Engine
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > reps {
					hi = reps
				}
				sub := MixedResult{}
				if int64(ci) > discChunk.Load() {
					for _, m := range plan.mults[lo:hi] {
						sub.Evaluated += m
					}
					per[ci] = sub
					continue
				}
				if c == nil {
					c = e.Clone()
				}
				toggle := func(v int, add bool) { c.toggleItem(v, edges, add) }
				sub.WorstNodeFaults = graph.NewBitset(e.n)
				var cur []int
				for i := lo; i < hi; i++ {
					if sub.Disconnected {
						for _, m := range plan.mults[i:hi] {
							sub.Evaluated += m
						}
						break
					}
					cur = applyDiff(cur, plan.sets[i], toggle)
					c.foldMixedBoundedW(&sub, plan.mults[i], &best)
				}
				for _, v := range cur {
					c.toggleItem(v, edges, false)
				}
				if sub.Disconnected {
					casMin(&discChunk, int64(ci))
				}
				per[ci] = sub
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixed(res, r)
	}
}
