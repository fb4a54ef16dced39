package graph

import (
	"math/rand"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(100)
	if b.Count() != 0 || b.Cap() != 100 {
		t.Fatal("fresh bitset should be empty")
	}
	b.Add(0)
	b.Add(63)
	b.Add(64)
	b.Add(99)
	if b.Count() != 4 {
		t.Fatalf("count = %d", b.Count())
	}
	for _, e := range []int{0, 63, 64, 99} {
		if !b.Has(e) {
			t.Fatalf("missing %d", e)
		}
	}
	if b.Has(1) || b.Has(65) {
		t.Fatal("unexpected members")
	}
	b.Remove(63)
	if b.Has(63) || b.Count() != 3 {
		t.Fatal("remove failed")
	}
	b.Remove(63) // idempotent
	b.Remove(-5) // out of range is a no-op
	if b.Count() != 3 {
		t.Fatal("no-op removals changed the set")
	}
}

func TestBitsetNilHas(t *testing.T) {
	var b *Bitset
	if b.Has(0) {
		t.Fatal("nil bitset should contain nothing")
	}
}

func TestBitsetOutOfRange(t *testing.T) {
	b := NewBitset(10)
	if b.Has(-1) || b.Has(10) {
		t.Fatal("out-of-range Has should be false")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Add out of range should panic")
		}
	}()
	b.Add(10)
}

func TestBitsetElementsSorted(t *testing.T) {
	b := BitsetOf(200, 150, 3, 64, 127, 128)
	elems := b.Elements()
	want := []int{3, 64, 127, 128, 150}
	if len(elems) != len(want) {
		t.Fatalf("elements = %v", elems)
	}
	for i := range want {
		if elems[i] != want[i] {
			t.Fatalf("elements = %v, want %v", elems, want)
		}
	}
}

func TestBitsetCloneIndependence(t *testing.T) {
	b := BitsetOf(10, 1, 2)
	c := b.Clone()
	c.Add(3)
	if b.Has(3) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestBitsetUnionWith(t *testing.T) {
	a := BitsetOf(10, 1, 2)
	b := BitsetOf(10, 2, 3)
	a.UnionWith(b)
	if a.Count() != 3 || !a.Has(1) || !a.Has(2) || !a.Has(3) {
		t.Fatalf("union = %v", a)
	}
}

func TestBitsetUnionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("capacity mismatch should panic")
		}
	}()
	NewBitset(10).UnionWith(NewBitset(20))
}

func TestBitsetString(t *testing.T) {
	if got := BitsetOf(10, 3, 1).String(); got != "{1,3}" {
		t.Fatalf("String = %q", got)
	}
	if got := NewBitset(4).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

// TestBitsetAgainstMap exercises the bitset against a reference map
// implementation under a random operation stream.
func TestBitsetAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const cap = 300
	b := NewBitset(cap)
	ref := map[int]bool{}
	for op := 0; op < 5000; op++ {
		e := rng.Intn(cap)
		switch rng.Intn(3) {
		case 0:
			b.Add(e)
			ref[e] = true
		case 1:
			b.Remove(e)
			delete(ref, e)
		default:
			if b.Has(e) != ref[e] {
				t.Fatalf("op %d: Has(%d) mismatch", op, e)
			}
		}
	}
	if b.Count() != len(ref) {
		t.Fatalf("count %d vs ref %d", b.Count(), len(ref))
	}
	for _, e := range b.Elements() {
		if !ref[e] {
			t.Fatalf("element %d not in reference", e)
		}
	}
}
