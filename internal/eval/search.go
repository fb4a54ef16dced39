package eval

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
)

// This file is the one fault-search driver every adversary in the
// package runs on. A search walks a list of items from the
// nodes-then-links id space (item v < n is node v, item n+i is link i of
// g.Edges(); ids past n+m are no-ops), toggles one item at a time on an
// evaluator, scores each set, and keeps the first set in enumeration
// order whose score no earlier set matched. Node-only, link-only and
// mixed searches are the same driver over different item lists.
//
// The driver holds one implementation each of: the preorder walk over
// an item list and a size range (exhaustive ≤ f, Profile's exact k,
// concentrator subsets, CheckTolerance, BeyondTolerance), sampled draws,
// greedy rounds, incumbent threading for the evaluators' bounded
// scores, and the work-stealing executor with its ordered merge. See
// docs/perf.md, "The search driver".

// evaluator is the contract a search runs on. *Engine implements it
// with the surviving diameter as the score, *WalkEngine with the walk
// outcome counts ranked by disrupted + λ·skipped. The zero value of S is
// the bottom score: every measured set beats it, nothing else does.
type evaluator[E any, S any] interface {
	// toggle adds (on) or removes one item of the nodes-then-links id
	// space.
	toggle(item int, on bool)
	// clone returns an independent evaluator holding the same set.
	clone() E
	// reset removes every item.
	reset()
	// score scores the current set. A set that cannot beat bound and
	// cannot tie tie may be reported as any score better than neither;
	// every other set is scored exactly.
	score(bound, tie S) S
	// probe scores the current set plus item, which it does not hold,
	// as score would, and leaves the set as it was.
	probe(item int, bound, tie S) S
	// better reports whether a is strictly better than b for the
	// adversary.
	better(a, b S) bool
	// final reports whether nothing can beat s (a disconnection): a
	// final score freezes the result, so the driver counts the sets it
	// would still visit instead of scoring them.
	final(s S) bool
}

// best is the running result of one span of a search.
type best[S any] struct {
	score     S     // incumbent
	pre       S     // incumbent just before it became final
	items     []int // the incumbent's set, sorted
	evaluated int   // sets evaluated (saturating)
}

// incumbent is a score shared between the workers of one search (or of
// one greedy round), raised as exact scores are found, together with
// the earliest work unit known to reach it.
type incumbent[S any] struct{ p atomic.Pointer[mark[S]] }

// mark is an incumbent score and the work unit (the greedy candidate
// index, in a greedy round) that reached it. The empty set, folded on
// the root before any unit, is unit -1; greedy's grown sets, folded
// after every unit, are unit math.MaxInt, as is the bottom score.
type mark[S any] struct {
	score S
	unit  int
}

func (in *incumbent[S]) load() mark[S] {
	if p := in.p.Load(); p != nil {
		return *p
	}
	var bottom S
	return mark[S]{bottom, math.MaxInt}
}

// worker is one goroutine's evaluator, the sorted set it holds, and the
// work unit it runs: -1 on the root and in serial searches.
type worker[E interface{ toggle(int, bool) }] struct {
	ev   E
	cur  []int
	unit int
}

// moveTo morphs the worker's set into the sorted set next with single
// toggles, one per item in which the two sets differ.
func (w *worker[E]) moveTo(next []int) {
	i, j := 0, 0
	for i < len(w.cur) || j < len(next) {
		switch {
		case j >= len(next) || (i < len(w.cur) && w.cur[i] < next[j]):
			w.ev.toggle(w.cur[i], false)
			i++
		case i >= len(w.cur) || next[j] < w.cur[i]:
			w.ev.toggle(next[j], true)
			j++
		default:
			i++
			j++
		}
	}
	w.cur = append(w.cur[:0], next...)
}

// search is one fault-set search over an item list.
type search[E evaluator[E, S], S any] struct {
	root    E
	items   []int
	lo, hi  int // set sizes the preorder walk visits
	workers int
	shared  *incumbent[S]
	// visit replaces folding a visited set into the result; it returns
	// false to stop the walk (serial walks only).
	visit func(w *worker[E], b *best[S]) bool
	main  worker[E]    // the root, for serial phases
	pool  []*worker[E] // clones, created on a worker's first unit
}

func newSearch[E evaluator[E, S], S any](root E, items []int, workers int) *search[E, S] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &search[E, S]{root: root, items: items, workers: workers, shared: new(incumbent[S]), main: worker[E]{ev: root, unit: -1}}
}

// improve makes sc the incumbent of b, with set as witness, if it is
// strictly better, publishing exact scores, reached by unit, to the
// search's incumbent.
func (s *search[E, S]) improve(b *best[S], sc S, set []int, unit int) {
	if !s.root.better(sc, b.score) {
		return
	}
	if s.root.final(sc) {
		b.pre = b.score
	} else {
		s.raise(s.shared, sc, unit)
	}
	b.score = sc
	b.items = append(make([]int, 0, len(set)), set...)
	sort.Ints(b.items)
}

// raise lifts in to sc, reached by unit, when sc is better, or when sc
// ties it and unit comes first.
func (s *search[E, S]) raise(in *incumbent[S], sc S, unit int) {
	for {
		cur := in.p.Load()
		if cur != nil && (s.root.better(cur.score, sc) || !s.root.better(sc, cur.score) && cur.unit <= unit) {
			return
		}
		if in.p.CompareAndSwap(cur, &mark[S]{sc, unit}) {
			return
		}
	}
}

// scoreAgainst scores the worker's set against bound and the incumbent
// in. A set of a unit after the one that reached in can only tie it
// behind that unit's witness, so it scores against in itself, which is
// never below bound since every exact improvement raises in; the other
// units keep ties with in exact, which is what leaves the first
// achiever of the final score its witness after the ordered merge.
func (s *search[E, S]) scoreAgainst(w *worker[E], in *incumbent[S], bound S) S {
	return w.ev.score(s.against(w, in, bound))
}

// against returns the bound and the tie the worker's set scores against
// (see scoreAgainst).
func (s *search[E, S]) against(w *worker[E], in *incumbent[S], bound S) (S, S) {
	m := in.load()
	if w.unit > m.unit {
		var bottom S
		return m.score, bottom
	}
	return bound, m.score
}

// fold counts the worker's current set and scores it against b's
// incumbent, unless b is frozen.
func (s *search[E, S]) fold(w *worker[E], b *best[S]) {
	b.evaluated = satAdd(b.evaluated, 1)
	if s.root.final(b.score) {
		return
	}
	s.improve(b, s.scoreAgainst(w, s.shared, b.score), w.cur, w.unit)
}

// visitSet folds (or visits) the worker's current set.
func (s *search[E, S]) visitSet(w *worker[E], b *best[S]) bool {
	if s.visit != nil {
		return s.visit(w, b)
	}
	s.fold(w, b)
	return true
}

// walk runs the preorder walk on the root: the empty set when lo is 0,
// then every set of size lo..hi in lexicographic preorder over items.
func (s *search[E, S]) walk(b *best[S]) bool {
	if s.lo == 0 && !s.visitSet(&s.main, b) {
		return false
	}
	return s.below(&s.main, 0, s.hi, b)
}

// below visits every extension of the worker's set by one item
// items[i], i >= start, followed by up to left-1 later items.
func (s *search[E, S]) below(w *worker[E], start, left int, b *best[S]) bool {
	n := len(s.items)
	for i := start; i < n && left > 0; i++ {
		need := s.lo - len(w.cur) // items still needed to reach size lo
		if s.root.final(b.score) {
			b.evaluated = satAdd(b.evaluated, countRange(n-i, max(need, 1), left))
			return true
		}
		if n-i < need {
			return true
		}
		if !s.from(w, i, left, b) {
			return false
		}
	}
	return true
}

// from visits the worker's set plus items[i], then its extensions.
func (s *search[E, S]) from(w *worker[E], i, left int, b *best[S]) bool {
	it := s.items[i]
	w.ev.toggle(it, true)
	w.cur = append(w.cur, it)
	ok := len(w.cur) < s.lo || s.visitSet(w, b)
	ok = ok && s.below(w, i+1, left-1, b)
	w.ev.toggle(it, false)
	w.cur = w.cur[:len(w.cur)-1]
	return ok
}

// exhaustive is walk over sizes lo..hi, fanned out over work units:
// unit u is the subtree of sets whose first item is items[u].
func (s *search[E, S]) exhaustive(b *best[S]) {
	if s.workers == 1 || s.hi == 0 {
		s.walk(b)
		return
	}
	if s.lo == 0 {
		s.visitSet(&s.main, b)
	}
	n := len(s.items)
	s.units(b, n, func(w *worker[E], u int, ub *best[S]) { s.from(w, u, s.hi, ub) },
		func(u int) int { return countRange(n-u-1, max(s.lo-1, 0), s.hi-1) })
}

// sampleBlock is the number of random sets sampled draws and scores at
// a time, which bounds its memory for any sample count.
const sampleBlock = 4096

// sampled folds samples uniform random sets of size f (f <= len(items))
// drawn from seed, in draw order. Blocks of sampleBlock sets run one
// after another, each on the work-stealing executor and merged in
// order, so the sets and the result are those of one pass over all
// draws.
func (s *search[E, S]) sampled(b *best[S], f, samples int, seed int64) {
	n := len(s.items)
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]int, min(samples, sampleBlock))
	for done := 0; done < samples; done += len(sets) {
		sets = sets[:min(samples-done, len(sets))]
		for i := range sets {
			ids := graph.NewBitset(n)
			for ids.Count() < f {
				ids.Add(rng.Intn(n))
			}
			sets[i] = ids.Elements()
			for j, x := range sets[i] {
				sets[i][j] = s.items[x]
			}
		}
		s.units(b, len(sets), func(w *worker[E], u int, ub *best[S]) {
			w.moveTo(sets[u])
			s.fold(w, ub)
		}, func(int) int { return 1 })
	}
	s.main.moveTo(nil)
	for _, w := range s.pool {
		if w != nil {
			w.moveTo(nil)
		}
	}
}

// greedy grows a set one item at a time for f rounds, each round adding
// the item whose addition scores best (the lowest such item), and folds
// each grown set into b. It stops after a final round winner or when no
// candidate is measured, and leaves every evaluator empty.
func (s *search[E, S]) greedy(b *best[S], f int) {
	n := len(s.items)
	chosen := make([]bool, n)
	verdicts := make([]S, n)
	var grown []int
	var bottom S
	for round := 0; round < f; round++ {
		// Probes score against the round's incumbent (ties exact up to
		// the candidate that reached it), and a final verdict makes every
		// later candidate unwinnable.
		var inc incumbent[S]
		var minFinal atomic.Int64
		minFinal.Store(int64(n))
		s.each(n, func(w *worker[E], i int) {
			verdicts[i] = bottom
			if chosen[i] || int64(i) > minFinal.Load() {
				return
			}
			bound, tie := s.against(w, &inc, bottom)
			sc := w.ev.probe(s.items[i], bound, tie)
			verdicts[i] = sc
			if s.root.final(sc) {
				casMin(&minFinal, int64(i))
			} else {
				s.raise(&inc, sc, w.unit)
			}
		})
		win, ws := -1, bottom
		for i, sc := range verdicts {
			if chosen[i] {
				continue
			}
			b.evaluated = satAdd(b.evaluated, 1)
			if s.root.better(sc, ws) {
				win, ws = i, sc
			}
		}
		if win < 0 {
			break
		}
		chosen[win] = true
		grown = append(grown, s.items[win])
		s.root.toggle(s.items[win], true)
		for _, w := range s.pool {
			if w != nil {
				w.ev.toggle(s.items[win], true)
			}
		}
		s.improve(b, ws, grown, math.MaxInt)
		if s.root.final(ws) {
			break
		}
	}
	s.root.reset()
	for _, w := range s.pool {
		if w != nil {
			w.ev.reset()
		}
	}
}

// units runs k work units, each folding into its own result, and
// merges the results in unit order. Once a unit's result is final, the
// units after it only add count(u), the sets they would have visited:
// the ordered merge discards their scores anyway.
//
// Workers score against the incumbent every unit raises, which is
// exact as long as no unit is final: a set skipped against a later
// unit's score is below the final best, and a set skipped for tying an
// earlier unit's score cannot be the first to reach it (see
// scoreAgainst). When a unit d is final, though,
// the result only keeps units up to d, and a score a later unit raised
// while they ran may have hidden their pre-freeze best. Units up to d
// then run again with the units after d count-only from the start.
func (s *search[E, S]) units(b *best[S], k int, unit func(w *worker[E], u int, b *best[S]), count func(u int) int) {
	if s.workers == 1 {
		for u := 0; u < k; u++ {
			if s.root.final(b.score) {
				b.evaluated = satAdd(b.evaluated, count(u))
				continue
			}
			unit(&s.main, u, b)
		}
		return
	}
	start, last := *b, int64(k) // units after last are count-only
	if s.root.final(b.score) {
		last = -1
	}
	for {
		per := make([]best[S], k)
		var frozen atomic.Int64
		frozen.Store(last)
		s.each(k, func(w *worker[E], u int) {
			if int64(u) > frozen.Load() {
				per[u].evaluated = count(u)
				return
			}
			unit(w, u, &per[u])
			if s.root.final(per[u].score) {
				casMin(&frozen, int64(u))
			}
		})
		for _, r := range per {
			s.merge(b, r)
		}
		d := frozen.Load()
		var bottom S
		if d == last || !slices.ContainsFunc(per[d+1:], func(r best[S]) bool { return s.root.better(r.score, bottom) }) {
			return
		}
		*b, last = start, d
		s.shared = new(incumbent[S])
		s.raise(s.shared, start.score, -1)
	}
}

// merge folds r into b, where r covers a span of the enumeration
// strictly after everything already in b. Replaying the strict
// improvement in span order keeps the serial result exactly: the first
// final score freezes b (its pre-freeze incumbent is the larger of the
// two), and otherwise the first set achieving the best score is the
// witness.
func (s *search[E, S]) merge(b *best[S], r best[S]) {
	b.evaluated = satAdd(b.evaluated, r.evaluated)
	if !s.root.better(r.score, b.score) {
		return
	}
	if s.root.final(r.score) {
		if s.root.better(r.pre, b.score) {
			b.pre = r.pre
		} else {
			b.pre = b.score
		}
	}
	b.score, b.items = r.score, r.items
}

// each is the work-stealing executor: workers claim units 0..k-1 from a
// shared counter, each on its own clone of the root, created on its
// first claim and kept for the rest of the search, and labelled with
// the unit it runs. With one worker the units run in order on the root,
// which stays unit -1, so serial searches keep ties exact.
func (s *search[E, S]) each(k int, fn func(w *worker[E], u int)) {
	if s.workers == 1 {
		for u := 0; u < k; u++ {
			fn(&s.main, u)
		}
		return
	}
	workers := min(s.workers, k)
	for len(s.pool) < workers {
		s.pool = append(s.pool, nil)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for u := int(next.Add(1)) - 1; u < k; u = int(next.Add(1)) - 1 {
				if s.pool[i] == nil {
					s.pool[i] = &worker[E]{ev: s.root.clone()}
				}
				s.pool[i].unit = u
				fn(s.pool[i], u)
			}
		}(i)
	}
	wg.Wait()
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

// countRange counts the subsets of size lo..hi drawn from avail items,
// saturating at math.MaxInt.
func countRange(avail, lo, hi int) int {
	total := 0
	for k := lo; k <= hi && k <= avail; k++ {
		total = satAdd(total, countChoose(avail, k))
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
