package routing

import (
	"bytes"
	"encoding/json"
	"testing"

	"ftroute/internal/gen"
)

func TestRoutingJSONRoundTripBidirectional(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRouting(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() || back.Bidirectional() != r.Bidirectional() {
		t.Fatalf("len %d vs %d", back.Len(), r.Len())
	}
	r.Each(func(u, v int, p Path) {
		q, ok := back.Get(u, v)
		if !ok || !q.Equal(p) {
			t.Fatalf("route (%d,%d) lost: %v vs %v", u, v, p, q)
		}
	})
}

func TestRoutingJSONRoundTripUnidirectional(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r := New(g)
	if err := r.Set(Path{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := r.Set(Path{2, 3, 4, 5, 0}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeRouting(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 || back.Bidirectional() {
		t.Fatalf("back = %d routes, bidi=%v", back.Len(), back.Bidirectional())
	}
	// Both asymmetric directions preserved independently.
	p, _ := back.Get(0, 2)
	q, _ := back.Get(2, 0)
	if !p.Equal(Path{0, 1, 2}) || !q.Equal(Path{2, 3, 4, 5, 0}) {
		t.Fatalf("asymmetric routes lost: %v / %v", p, q)
	}
}

func TestDecodeRoutingRejectsMismatchedGraph(t *testing.T) {
	g6, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	g8, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g6)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRouting(g8, data); err == nil {
		t.Fatal("node-count mismatch should fail")
	}
	// A graph with the same node count but missing edges must also be
	// rejected: the paths re-validate.
	sparse, err := gen.Path(6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRouting(sparse, data); err == nil {
		t.Fatal("paths over missing edges should fail validation")
	}
}

func TestDecodeRoutingRejectsGarbage(t *testing.T) {
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRouting(g, []byte("{")); err == nil {
		t.Fatal("syntax error should fail")
	}
}

func TestWriteTo(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := r.WriteTo(&buf)
	if err != nil || n != int64(buf.Len()) || buf.Len() == 0 {
		t.Fatalf("WriteTo = (%d, %v), buf %d", n, err, buf.Len())
	}
	back, err := DecodeRouting(g, buf.Bytes())
	if err != nil || back.Len() != r.Len() {
		t.Fatalf("decode after WriteTo: %v", err)
	}
}

// TestMarshalJSONIgnoresInsertionOrder: two equal routings whose routes
// were installed in opposite orders encode to identical bytes, so an
// exported table does not depend on map iteration order.
func TestMarshalJSONIgnoresInsertionOrder(t *testing.T) {
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	var pairs [][2]int
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if r.Has(u, v) {
				pairs = append(pairs, [2]int{u, v})
			}
		}
	}
	last := len(pairs) - 1
	fwd, rev := NewBidirectional(g), NewBidirectional(g)
	for i := range pairs {
		p, _ := r.Get(pairs[i][0], pairs[i][1])
		q, _ := r.Get(pairs[last-i][0], pairs[last-i][1])
		if err := fwd.Set(p); err != nil {
			t.Fatal(err)
		}
		if err := rev.Set(q); err != nil {
			t.Fatal(err)
		}
	}
	if !fwd.Equal(rev) || !fwd.Equal(r) {
		t.Fatal("rebuilt routings differ")
	}
	// fwd twice, so a second encoding of the same value is checked too.
	var out [3][]byte
	for i, x := range []*Routing{fwd, rev, fwd} {
		data, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	if !bytes.Equal(out[0], out[1]) || !bytes.Equal(out[0], out[2]) {
		t.Fatalf("equal routings encode differently:\n%.200s\n%.200s\n%.200s", out[0], out[1], out[2])
	}
}
