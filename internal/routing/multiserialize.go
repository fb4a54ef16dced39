package routing

import (
	"encoding/json"
	"fmt"

	"ftroute/internal/graph"
)

// multiJSON is the wire form for multiroutings.
type multiJSON struct {
	Nodes         int       `json:"nodes"`
	Limit         int       `json:"limit"`
	Bidirectional bool      `json:"bidirectional"`
	Routes        [][][]int `json:"routes"` // groups of parallel paths per stored pair
}

// MarshalJSON encodes the multirouting, pairs in sorted order, so equal
// multiroutings encode to identical bytes. For bidirectional
// multiroutings only pairs with src < dst are stored (plus any
// asymmetric leftovers, which cannot arise through Add but are
// preserved defensively).
func (m *MultiRouting) MarshalJSON() ([]byte, error) {
	wire := multiJSON{Nodes: m.g.N(), Limit: m.limit, Bidirectional: m.bidirectional}
	for _, k := range sortedKeys(m.routes) {
		if m.bidirectional && k.u > k.v {
			continue
		}
		paths := m.routes[k]
		group := make([][]int, len(paths))
		for i, p := range paths {
			group[i] = []int(p)
		}
		wire.Routes = append(wire.Routes, group)
	}
	return json.Marshal(wire)
}

// DecodeMultiRouting reconstructs a multirouting from MarshalJSON output
// over the given graph, re-validating every path.
func DecodeMultiRouting(g *graph.Graph, data []byte) (*MultiRouting, error) {
	var wire multiJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if wire.Nodes != g.N() {
		return nil, fmt.Errorf("routing: multirouting encoded for %d nodes, graph has %d", wire.Nodes, g.N())
	}
	m := NewMulti(g, wire.Limit, wire.Bidirectional)
	for _, group := range wire.Routes {
		for _, raw := range group {
			if err := m.Add(Path(raw)); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}
