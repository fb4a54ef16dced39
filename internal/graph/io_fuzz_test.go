package graph

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzDecoders feeds arbitrary bytes to both graph decoders. Neither may
// panic, and a graph either one accepts must round-trip unchanged
// through WriteEdgeList/ReadEdgeList and MarshalJSON/UnmarshalJSON.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte("n 3\n0 1\n1 2\n"))
	f.Add([]byte("# comment\nn 4\n\n0 3\n"))
	f.Add([]byte("n -1\n"))
	f.Add([]byte("n 100000000000\n"))
	f.Add([]byte("n 2\n0 5\n"))
	f.Add([]byte(`{"nodes": 3, "edges": [[0, 1], [1, 2]]}`))
	f.Add([]byte(`{"nodes": -1, "edges": []}`))
	f.Add([]byte(`{"nodes": 100000000000, "edges": []}`))
	f.Add([]byte(`{"nodes": 2, "edges": [[0, 0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if g, err := ReadEdgeList(bytes.NewReader(data)); err == nil {
			roundTrips(t, g)
		}
		var g Graph
		if err := json.Unmarshal(data, &g); err == nil {
			roundTrips(t, &g)
		}
	})
}

// roundTrips checks that g survives both encodings unchanged.
func roundTrips(t *testing.T, g *Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatalf("edge list of %v does not read back: %v", g, err)
	}
	if !g.Equal(back) {
		t.Fatalf("edge list round trip changed %v into %v", g, back)
	}
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON Graph
	if err := json.Unmarshal(data, &fromJSON); err != nil {
		t.Fatalf("JSON of %v does not decode: %v", g, err)
	}
	if !g.Equal(&fromJSON) {
		t.Fatalf("JSON round trip changed %v into %v", g, &fromJSON)
	}
}
