package routing_test

import (
	"bytes"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/routing"
)

// FuzzDecodeRouting feeds arbitrary bytes to DecodeRouting over CCC(3),
// the decoder behind `ftroute check -table`. It must not panic, a table
// it accepts must pass Validate, and encode → decode → encode must give
// the same bytes.
func FuzzDecodeRouting(f *testing.F) {
	g, err := gen.CCC(3)
	if err != nil {
		f.Fatal(err)
	}
	// The table `ftroute export -graph ccc:3` writes, and a shortest-path one.
	plan, err := core.Auto(g, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	sp, err := routing.ShortestPath(g)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*routing.Routing{plan.Routing, sp} {
		data, err := r.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2]) // truncated
	}
	// Node 0's neighbours in CCC(3) are 1, 2 and 3, and 1-2 is an edge.
	for _, seed := range []string{
		`{"nodes":23,"bidirectional":true,"routes":[[0,1]]}`, // wrong node count
		`{"nodes":24,"routes":[[0,24]]}`,                     // node out of range
		`{"nodes":24,"routes":[[-1,0]]}`,                     // negative node
		`{"nodes":24,"routes":[[0,1,2,0,3]]}`,                // repeated node
		`{"nodes":24,"routes":[[0,4]]}`,                      // hop along a non-edge
		`{"nodes":24,"routes":[[5]]}`,                        // one-node path
		`{"nodes":24,"routes":[[0,1],[0,1]]}`,                // pair repeated, same path
		`{"nodes":24,"routes":[[0,1],[0,2,1]]}`,              // pair repeated, conflicting paths
		`{"nodes":24,"bidirectional":true,"routes":[[0,2,1],[1,0]]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := routing.DecodeRouting(g, data)
		if err != nil {
			return
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("accepted a table that fails Validate: %v", err)
		}
		enc, err := r.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := routing.DecodeRouting(g, enc)
		if err != nil {
			t.Fatalf("own encoding rejected: %v\n%s", err, enc)
		}
		again, err := back.MarshalJSON()
		if err != nil || !bytes.Equal(enc, again) {
			t.Fatalf("encode → decode → encode changed\n%s\ninto\n%s (err %v)", enc, again, err)
		}
	})
}
