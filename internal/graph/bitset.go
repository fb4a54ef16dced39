package graph

import (
	"math/bits"
	"strconv"
	"strings"
)

// Bitset is a fixed-capacity set of small non-negative integers, used for
// fault sets, visited sets and separator membership throughout the
// library. The zero value is an empty set of capacity 0; use NewBitset.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an empty bitset with capacity for elements 0..n-1.
func NewBitset(n int) *Bitset {
	if n < 0 {
		panic("graph: negative bitset capacity")
	}
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// BitsetOf returns a bitset of capacity n containing the given elements.
func BitsetOf(n int, elems ...int) *Bitset {
	b := NewBitset(n)
	for _, e := range elems {
		b.Add(e)
	}
	return b
}

// Cap returns the capacity (the exclusive upper bound on elements).
func (b *Bitset) Cap() int { return b.n }

// Add inserts e. It panics if e is out of range, since fault and visited
// sets are always constructed against a known node count.
func (b *Bitset) Add(e int) {
	if e < 0 || e >= b.n {
		panic("graph: bitset element out of range: " + strconv.Itoa(e))
	}
	b.words[e>>6] |= 1 << (uint(e) & 63)
}

// Remove deletes e if present.
func (b *Bitset) Remove(e int) {
	if e < 0 || e >= b.n {
		return
	}
	b.words[e>>6] &^= 1 << (uint(e) & 63)
}

// Has reports whether e is in the set. Out-of-range elements report false.
func (b *Bitset) Has(e int) bool {
	if b == nil || e < 0 || e >= b.n {
		return false
	}
	return b.words[e>>6]&(1<<(uint(e)&63)) != 0
}

// Count returns the number of elements in the set.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a deep copy.
func (b *Bitset) Clone() *Bitset {
	return &Bitset{words: append([]uint64(nil), b.words...), n: b.n}
}

// Elements returns the members in increasing order.
func (b *Bitset) Elements() []int {
	out := make([]int, 0, b.Count())
	for i, w := range b.words {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			out = append(out, i*64+t)
			w &= w - 1
		}
	}
	return out
}

// UnionWith adds every element of other to b. The sets must have equal
// capacity.
func (b *Bitset) UnionWith(other *Bitset) {
	if b.n != other.n {
		panic("graph: bitset capacity mismatch")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// String renders the set as "{a,b,c}".
func (b *Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for i, e := range b.Elements() {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.Itoa(e))
	}
	sb.WriteByte('}')
	return sb.String()
}
