// Package gen constructs the graph families used by the paper and its
// evaluation: classical deterministic topologies (hypercube, CCC,
// wrapped butterfly, de Bruijn / d-way shuffle, torus, circulant,
// Harary), fixed small graphs with known connectivity (Petersen,
// octahedron, icosahedron) and random models (G(n,p), random regular).
//
// Every generator documents the node-connectivity of its output, since
// the paper's constructions are parameterized by t = connectivity - 1.
// Random generators take an explicit seed and are fully deterministic.
// Parameters whose graph would have more than graph.MaxNodes nodes are
// rejected with ErrBadParam; every size is checked before it is
// computed, so none overflows.
package gen

import (
	"errors"
	"fmt"

	"ftroute/internal/graph"
)

// ErrBadParam reports parameters outside a generator's documented domain.
var ErrBadParam = errors.New("gen: bad parameter")

// Complete returns the complete graph K_n (connectivity n-1).
func Complete(n int) (*graph.Graph, error) {
	if n < 1 || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Complete(%d)", ErrBadParam, n)
	}
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v)
		}
	}
	return g, nil
}

// Path returns the path graph P_n (connectivity 1 for n >= 2).
func Path(n int) (*graph.Graph, error) {
	if n < 1 || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Path(%d)", ErrBadParam, n)
	}
	g := graph.New(n)
	for i := 0; i+1 < n; i++ {
		g.MustAddEdge(i, i+1)
	}
	return g, nil
}

// Cycle returns the cycle C_n (connectivity 2), requiring n >= 3.
func Cycle(n int) (*graph.Graph, error) {
	if n < 3 || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Cycle(%d)", ErrBadParam, n)
	}
	g, err := Path(n)
	if err != nil {
		return nil, err
	}
	g.MustAddEdge(n-1, 0)
	return g, nil
}

// Star returns the star K_{1,n-1} with center 0 (connectivity 1).
func Star(n int) (*graph.Graph, error) {
	if n < 2 || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Star(%d)", ErrBadParam, n)
	}
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v)
	}
	return g, nil
}

// Grid returns the r x c grid graph (connectivity 2 for r,c >= 2); it is
// planar, one of the low-connectivity families the paper's Theorem 3
// discussion highlights. Node (i,j) has index i*c+j.
func Grid(r, c int) (*graph.Graph, error) {
	if r < 1 || c < 1 || r > graph.MaxNodes/c {
		return nil, fmt.Errorf("%w: Grid(%d,%d)", ErrBadParam, r, c)
	}
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				g.MustAddEdge(id(i, j), id(i, j+1))
			}
			if i+1 < r {
				g.MustAddEdge(id(i, j), id(i+1, j))
			}
		}
	}
	return g, nil
}

// Torus returns the r x c torus (wraparound grid), connectivity 4 for
// r,c >= 3 (it is 4-regular). r,c >= 3 is required to keep the graph
// simple.
func Torus(r, c int) (*graph.Graph, error) {
	if r < 3 || c < 3 || r > graph.MaxNodes/c {
		return nil, fmt.Errorf("%w: Torus(%d,%d) requires r,c >= 3 and r*c <= graph.MaxNodes", ErrBadParam, r, c)
	}
	g := graph.New(r * c)
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			g.MustAddEdge(id(i, j), id(i, (j+1)%c))
			g.MustAddEdge(id(i, j), id((i+1)%r, j))
		}
	}
	return g, nil
}

// Hypercube returns the d-dimensional hypercube Q_d on 2^d nodes
// (connectivity d). Node labels are the binary strings interpreted as
// integers; u and v are adjacent iff they differ in exactly one bit.
func Hypercube(d int) (*graph.Graph, error) {
	if d < 1 || d > 20 {
		return nil, fmt.Errorf("%w: Hypercube(%d)", ErrBadParam, d)
	}
	n := 1 << uint(d)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if v > u {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g, nil
}

// CCC returns the cube-connected cycles network CCC(d) on d*2^d nodes
// (3-regular, connectivity 3 for d >= 3). Node (w, i) — cube position w,
// cycle position i — has index w*d + i; it connects to its cycle
// neighbors (w, i±1 mod d) and across dimension i to (w ^ 2^i, i).
// CCC is one of the bounded-degree hypercube realizations the paper
// names as a natural application.
func CCC(d int) (*graph.Graph, error) {
	if d < 3 || d > 16 {
		return nil, fmt.Errorf("%w: CCC(%d) requires 3 <= d <= 16", ErrBadParam, d)
	}
	n := d * (1 << uint(d))
	g := graph.New(n)
	id := func(w, i int) int { return w*d + i }
	for w := 0; w < 1<<uint(d); w++ {
		for i := 0; i < d; i++ {
			g.MustAddEdge(id(w, i), id(w, (i+1)%d))
			x := w ^ (1 << uint(i))
			if x > w {
				g.MustAddEdge(id(w, i), id(x, i))
			}
		}
	}
	return g, nil
}

// WrappedButterfly returns the wrapped (extended) butterfly network
// BF(d) on d*2^d nodes (4-regular, connectivity 4 for d >= 3). Node
// (w, i) has index w*d + i and connects level i to level (i+1) mod d via
// the "straight" edge (w, i)→(w, i+1) and the "cross" edge
// (w, i)→(w ^ 2^i, i+1). d >= 3 keeps the graph simple.
func WrappedButterfly(d int) (*graph.Graph, error) {
	if d < 3 || d > 16 {
		return nil, fmt.Errorf("%w: WrappedButterfly(%d) requires 3 <= d <= 16", ErrBadParam, d)
	}
	n := d * (1 << uint(d))
	g := graph.New(n)
	id := func(w, i int) int { return w*d + i }
	for w := 0; w < 1<<uint(d); w++ {
		for i := 0; i < d; i++ {
			j := (i + 1) % d
			if _, err := g.AddEdgeIfAbsent(id(w, i), id(w, j)); err != nil {
				return nil, err
			}
			if _, err := g.AddEdgeIfAbsent(id(w, i), id(w^(1<<uint(i)), j)); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// DeBruijn returns the undirected de Bruijn graph B(2, d) on 2^d nodes,
// the classical "d-way shuffle" style network. Self-loops and parallel
// edges arising at the corner words are dropped, so a few nodes have
// degree below 4. Connectivity is 2 (the underlying undirected de
// Bruijn graph has cut structure at the loops' nodes removed); it is
// used here as a sparse workload family rather than a connectivity
// showcase.
func DeBruijn(d int) (*graph.Graph, error) {
	if d < 2 || d > 20 {
		return nil, fmt.Errorf("%w: DeBruijn(%d)", ErrBadParam, d)
	}
	n := 1 << uint(d)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < 2; b++ {
			v := ((u << 1) | b) & (n - 1)
			if _, err := g.AddEdgeIfAbsent(u, v); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Circulant returns the circulant graph C_n(offsets): node u is adjacent
// to u±o (mod n) for each offset o. Offsets must lie in [1, n/2]. With
// offsets 1..k the result is the standard building block of Harary
// graphs. Connectivity equals the number of distinct "arc ends" for
// well-formed offset sets; for offsets {1..k} with n > 2k it is 2k.
func Circulant(n int, offsets []int) (*graph.Graph, error) {
	if n < 3 || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Circulant(%d)", ErrBadParam, n)
	}
	g := graph.New(n)
	for _, o := range offsets {
		if o < 1 || o > n/2 {
			return nil, fmt.Errorf("%w: Circulant offset %d outside [1,%d]", ErrBadParam, o, n/2)
		}
		for u := 0; u < n; u++ {
			if _, err := g.AddEdgeIfAbsent(u, (u+o)%n); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Harary returns the Harary graph H(k, n): the k-connected graph on n
// nodes with the minimum possible number of edges (⌈kn/2⌉). It is the
// canonical known-connectivity test family. Requires 2 <= k < n.
func Harary(k, n int) (*graph.Graph, error) {
	if k < 2 || k >= n || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Harary(%d,%d) requires 2 <= k < n <= graph.MaxNodes", ErrBadParam, k, n)
	}
	half := k / 2
	offsets := make([]int, 0, half+1)
	for o := 1; o <= half; o++ {
		offsets = append(offsets, o)
	}
	g, err := Circulant(n, offsets)
	if err != nil {
		return nil, err
	}
	if k%2 == 1 {
		if n%2 == 0 {
			// Add diameters u -- u + n/2.
			for u := 0; u < n/2; u++ {
				if _, err := g.AddEdgeIfAbsent(u, u+n/2); err != nil {
					return nil, err
				}
			}
		} else {
			// Odd k, odd n: add near-diameters per Harary's construction.
			for u := 0; u <= n/2; u++ {
				if _, err := g.AddEdgeIfAbsent(u, (u+(n-1)/2)%n); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// Petersen returns the Petersen graph (10 nodes, 3-regular, connectivity
// 3, girth 5).
func Petersen() *graph.Graph {
	g := graph.New(10)
	// Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5.
	for i := 0; i < 5; i++ {
		g.MustAddEdge(i, (i+1)%5)
		g.MustAddEdge(5+i, 5+(i+2)%5)
		g.MustAddEdge(i, i+5)
	}
	return g
}

// Octahedron returns the octahedron K_{2,2,2} (6 nodes, 4-regular,
// planar, connectivity 4).
func Octahedron() *graph.Graph {
	g := graph.New(6)
	// Parts {0,3}, {1,4}, {2,5}; nodes are adjacent iff in different parts.
	for u := 0; u < 6; u++ {
		for v := u + 1; v < 6; v++ {
			if v-u != 3 {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// Icosahedron returns the icosahedron graph (12 nodes, 5-regular,
// planar, connectivity 5) — the extreme case for the paper's remark
// that planar networks have connectivity at most 5 and hence kernel
// bound 2t = 8.
func Icosahedron() *graph.Graph {
	g := graph.New(12)
	edges := [][2]int{
		{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5},
		{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1},
		{1, 6}, {1, 7}, {2, 7}, {2, 8}, {3, 8},
		{3, 9}, {4, 9}, {4, 10}, {5, 10}, {5, 6},
		{6, 7}, {7, 8}, {8, 9}, {9, 10}, {10, 6},
		{6, 11}, {7, 11}, {8, 11}, {9, 11}, {10, 11},
	}
	for _, e := range edges {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// Wheel returns the wheel W_n: a cycle on n-1 nodes plus a hub adjacent
// to all of them (connectivity 3 for n >= 5). The hub is node n-1.
func Wheel(n int) (*graph.Graph, error) {
	if n < 4 || n > graph.MaxNodes {
		return nil, fmt.Errorf("%w: Wheel(%d)", ErrBadParam, n)
	}
	g, err := Cycle(n - 1)
	if err != nil {
		return nil, err
	}
	wg := graph.New(n)
	for _, e := range g.Edges() {
		wg.MustAddEdge(e[0], e[1])
	}
	for v := 0; v < n-1; v++ {
		wg.MustAddEdge(n-1, v)
	}
	return wg, nil
}
