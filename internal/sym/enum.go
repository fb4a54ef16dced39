package sym

import "sort"

// Enumerator yields one canonical representative per orbit of item
// sets under a permutation group acting on 0..items-1, together with
// the orbit size. A sorted set S is canonical iff no group element
// maps it to a lexicographically smaller sorted set — S is the minimum
// of its orbit.
//
// Enumeration runs as a lexicographic DFS over sorted sets with prefix
// pruning: if a sorted prefix P is not canonical, no set extending P
// with larger items is canonical either (applying the witness element
// to the extension keeps its j smallest mapped items ≤ the mapped
// prefix elementwise, so the extension's image is still smaller), so
// the whole subtree is skipped. Conversely every prefix of a canonical
// set is canonical, so the DFS reaches every representative.
type Enumerator struct {
	items int
	perms [][]int // non-identity elements of the acting group
}

// NewEnumerator builds an enumerator over the item universe acted on by
// the given group elements (the identity, if present, is dropped).
// Elements — not just generators — are required: canonicity under a
// generating subset is not orbit-minimality.
func NewEnumerator(items int, elems [][]int) *Enumerator {
	e := &Enumerator{items: items}
	for _, p := range elems {
		identity := true
		for i, v := range p {
			if i != v {
				identity = false
				break
			}
		}
		if !identity {
			e.perms = append(e.perms, p)
		}
	}
	return e
}

// Each calls fn for every canonical set of size 1..maxSize in
// lexicographic preorder, with the set's orbit size as mult. The set
// slice is reused across calls; copy it to retain. No set is larger
// than the universe, so maxSize is clamped to 0..items.
func (e *Enumerator) Each(maxSize int, fn func(set []int, mult int)) {
	maxSize = min(max(maxSize, 0), e.items)
	e.walk(0, maxSize, make([]int, 0, maxSize), fn)
}

// Count returns the number of canonical sets of size 1..maxSize and
// the sum of their orbit sizes (= the number of all such sets).
func (e *Enumerator) Count(maxSize int) (reps, total int) {
	e.Each(maxSize, func(_ []int, mult int) {
		reps++
		total += mult
	})
	return reps, total
}

func (e *Enumerator) walk(start, left int, set []int, fn func([]int, int)) {
	if left == 0 {
		return
	}
	img := make([]int, 0, len(set)+1)
	for v := start; v < e.items; v++ {
		set = append(set, v)
		if e.canonical(set, img) {
			fn(set, e.orbitSize(set))
			e.walk(v+1, left-1, set, fn)
		}
		set = set[:len(set)-1]
	}
}

// canonical reports whether sorted set is the lexicographic minimum of
// its orbit. img is scratch.
func (e *Enumerator) canonical(set, img []int) bool {
	for _, p := range e.perms {
		img = img[:0]
		for _, v := range set {
			img = append(img, p[v])
		}
		sort.Ints(img)
		if lexLess(img, set) {
			return false
		}
	}
	return true
}

// orbitSize counts the distinct images of set under the group.
func (e *Enumerator) orbitSize(set []int) int {
	if len(e.perms) == 0 {
		return 1
	}
	img := make([]int, len(set))
	seen := map[string]bool{intsKey(set): true}
	for _, p := range e.perms {
		for i, v := range set {
			img[i] = p[v]
		}
		sort.Ints(img)
		seen[intsKey(img)] = true
	}
	return len(seen)
}

func lexLess(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func intsKey(s []int) string {
	buf := make([]byte, 0, 4*len(s))
	for _, v := range s {
		buf = appendColor(buf, v)
	}
	return string(buf)
}
