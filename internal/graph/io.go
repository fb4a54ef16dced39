package graph

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// MaxNodes is the largest node count ReadEdgeList and UnmarshalJSON
// accept. It is far above every generator and anchor in this module
// (the largest has 5,000 nodes), and small enough that the graph New
// allocates for it (24 bytes a node, 24 MiB) cannot exhaust memory, so
// a one-line header cannot crash the process that decodes it. Whatever
// is built on the graph later needs its own budget: an eval.Engine keeps
// n²/4 bytes of bitrows, 256 GiB at MaxNodes.
const MaxNodes = 1 << 20

// checkNodes rejects a decoded node count outside 0..MaxNodes.
func checkNodes(n int) error {
	if n < 0 || n > MaxNodes {
		return fmt.Errorf("node count %d outside 0..MaxNodes (%d)", n, MaxNodes)
	}
	return nil
}

// WriteEdgeList writes the graph in a plain text format:
//
//	n <nodes>
//	<u> <v>
//	...
//
// one edge per line with u < v, sorted. Lines starting with '#' are
// comments on read. The format round-trips exactly through ReadEdgeList.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "n %d\n", g.N()); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		if _, err := fmt.Fprintf(bw, "%d %d\n", e[0], e[1]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format. Duplicate edges,
// self-loops, and node counts that are negative or above MaxNodes are
// rejected.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	var g *Graph
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if g == nil {
			if len(fields) != 2 || fields[0] != "n" {
				return nil, fmt.Errorf("graph: line %d: want header \"n <count>\", got %q", line, text)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad node count %q", line, fields[1])
			}
			if err := checkNodes(n); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			g = New(n)
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want \"u v\", got %q", line, text)
		}
		u, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		if err := g.AddEdge(u, v); err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: empty input")
	}
	return g, nil
}

// graphJSON is the wire form for JSON (de)serialization.
type graphJSON struct {
	Nodes int      `json:"nodes"`
	Edges [][2]int `json:"edges"`
}

// MarshalJSON encodes the graph as {"nodes": n, "edges": [[u,v],...]}.
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(graphJSON{Nodes: g.N(), Edges: g.Edges()})
}

// UnmarshalJSON decodes the MarshalJSON format, with the same checks as
// ReadEdgeList.
func (g *Graph) UnmarshalJSON(data []byte) error {
	var wire graphJSON
	if err := json.Unmarshal(data, &wire); err != nil {
		return err
	}
	if err := checkNodes(wire.Nodes); err != nil {
		return fmt.Errorf("graph: %w", err)
	}
	fresh := New(wire.Nodes)
	for _, e := range wire.Edges {
		if err := fresh.AddEdge(e[0], e[1]); err != nil {
			return err
		}
	}
	*g = *fresh
	return nil
}
