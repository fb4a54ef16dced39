package routing

import (
	"encoding/json"
	"fmt"
	"io"

	"ftroute/internal/graph"
)

// The paper's model computes the routing table once and distributes it;
// this file provides a stable JSON wire form so tables can be persisted
// and shipped. Paths are stored once per unordered pair for
// bidirectional routings to halve the encoding size.

// routingJSON is the wire form.
type routingJSON struct {
	Nodes         int     `json:"nodes"`
	Bidirectional bool    `json:"bidirectional"`
	Routes        [][]int `json:"routes"`
}

// MarshalJSON encodes the routing with its underlying graph's node
// count. Routes are written in sorted pair order, so equal routings
// encode to identical bytes. For bidirectional routings only the
// direction with src < dst is stored.
func (r *Routing) MarshalJSON() ([]byte, error) {
	wire := routingJSON{Nodes: r.g.N(), Bidirectional: r.bidirectional}
	for _, k := range sortedKeys(r.routes) {
		if r.bidirectional && k.u > k.v {
			continue
		}
		wire.Routes = append(wire.Routes, []int(r.routes[k]))
	}
	return json.Marshal(wire)
}

// DecodeRouting reconstructs a routing from MarshalJSON output over the
// given graph. The graph must match the encoded node count, and every
// stored path must be a valid simple path of g (which re-validates the
// table against the network it is deployed on — a corrupted or
// mismatched table is rejected rather than installed).
func DecodeRouting(g *graph.Graph, data []byte) (*Routing, error) {
	var wire routingJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, err
	}
	if wire.Nodes != g.N() {
		return nil, fmt.Errorf("routing: table encoded for %d nodes, graph has %d", wire.Nodes, g.N())
	}
	var r *Routing
	if wire.Bidirectional {
		r = NewBidirectional(g)
	} else {
		r = New(g)
	}
	for _, raw := range wire.Routes {
		if err := r.Set(Path(raw)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// WriteTo streams the JSON encoding.
func (r *Routing) WriteTo(w io.Writer) (int64, error) {
	data, err := r.MarshalJSON()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}
