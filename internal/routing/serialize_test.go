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

func TestMultiRoutingJSONRoundTrip(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMulti(g, 2, true)
	if err := m.Add(Path{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{0, 5, 4, 3}); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(Path{1, 2}); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMultiRouting(g, data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Limit() != 2 || back.Pairs() != m.Pairs() {
		t.Fatalf("limit=%d pairs=%d vs %d", back.Limit(), back.Pairs(), m.Pairs())
	}
	if got := back.Get(0, 3); len(got) != 2 {
		t.Fatalf("routes (0,3) = %v", got)
	}
	if got := back.Get(3, 0); len(got) != 2 {
		t.Fatalf("reverse routes (3,0) = %v", got)
	}
}

func TestDecodeMultiRoutingRejects(t *testing.T) {
	g, err := gen.Cycle(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeMultiRouting(g, []byte(`{"nodes":9}`)); err == nil {
		t.Fatal("node mismatch should fail")
	}
	if _, err := DecodeMultiRouting(g, []byte(`{`)); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := DecodeMultiRouting(g, []byte(`{"nodes":5,"limit":1,"routes":[[[0,2]]]}`)); err == nil {
		t.Fatal("non-edge path should fail")
	}
}

// TestMarshalJSONIgnoresInsertionOrder: two equal routings whose routes
// were installed in opposite orders encode to identical bytes, for a
// Routing and a MultiRouting alike, so an exported table does not
// depend on map iteration order.
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
	sameEncoding(t, "routing", fwd, rev)

	m, err := Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	mf, mr := NewMulti(g, m.Limit(), false), NewMulti(g, m.Limit(), false)
	for i := range pairs {
		for _, p := range m.Get(pairs[i][0], pairs[i][1]) {
			if err := mf.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range m.Get(pairs[last-i][0], pairs[last-i][1]) {
			if err := mr.Add(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !mf.Equal(mr) || !mf.Equal(m) {
		t.Fatal("rebuilt multiroutings differ")
	}
	sameEncoding(t, "multirouting", mf, mr)
}

// sameEncoding asserts that a and b, and a second encoding of a, are
// the same bytes.
func sameEncoding(t *testing.T, name string, a, b json.Marshaler) {
	t.Helper()
	var out [3][]byte
	for i, x := range []json.Marshaler{a, b, a} {
		data, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = data
	}
	if !bytes.Equal(out[0], out[1]) || !bytes.Equal(out[0], out[2]) {
		t.Fatalf("%s: equal values encode differently:\n%.200s\n%.200s\n%.200s", name, out[0], out[1], out[2])
	}
}
