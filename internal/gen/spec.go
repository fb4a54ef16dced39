package gen

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftroute/internal/graph"
)

// Parse builds the graph a spec names. It is the -graph language of
// both command-line tools:
//
//	cycle:N            cycle on N nodes (connectivity 2)
//	path:N             path on N nodes
//	wheel:N            wheel on N nodes, hub included (connectivity 3)
//	grid:RxC           R-by-C grid (planar)
//	torus:RxC          R-by-C torus (connectivity 4)
//	hypercube:N        N-dimensional hypercube
//	ccc:N              cube-connected cycles of dimension N
//	butterfly:N        wrapped butterfly of dimension N
//	debruijn:N         binary de Bruijn graph of dimension N
//	harary:KxN         Harary graph H(K,N) (connectivity K)
//	gp:NxK             generalized Petersen graph GP(N,K)
//	petersen           the Petersen graph
//	icosahedron        the icosahedron (planar, connectivity 5)
//	gnp:N:P:SEED       Erdős–Rényi G(N,P)
//	regular:N:D:SEED   random D-regular graph
//	file:PATH          edge-list file (graph.ReadEdgeList)
//
// An unknown family, a missing argument or one that is not a number is
// an error that names the spec. Arguments outside a generator's domain
// return that generator's ErrBadParam error.
func Parse(spec string) (*graph.Graph, error) {
	family, rest, _ := strings.Cut(spec, ":")
	bad := func(format string, a ...any) error {
		return fmt.Errorf("gen: graph spec %q: %s", spec, fmt.Sprintf(format, a...))
	}
	// ints parses exactly len(want) integer arguments separated by sep.
	ints := func(sep string, want ...string) ([]int, error) {
		fields := strings.Split(rest, sep)
		if rest == "" || len(fields) != len(want) {
			return nil, bad("want %s:%s", family, strings.Join(want, sep))
		}
		out := make([]int, len(fields))
		for i, f := range fields {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, bad("%s = %q is not an integer", want[i], f)
			}
			out[i] = v
		}
		return out, nil
	}
	one := map[string]func(int) (*graph.Graph, error){
		"cycle": Cycle, "path": Path, "wheel": Wheel, "hypercube": Hypercube,
		"ccc": CCC, "butterfly": WrappedButterfly, "debruijn": DeBruijn,
	}
	two := map[string]struct {
		args string // as in the spec syntax
		gen  func(int, int) (*graph.Graph, error)
	}{
		"grid": {"RxC", Grid}, "torus": {"RxC", Torus},
		"harary": {"KxN", Harary}, "gp": {"NxK", GeneralizedPetersen},
	}
	if f, ok := one[family]; ok {
		a, err := ints(":", "N")
		if err != nil {
			return nil, err
		}
		return f(a[0])
	}
	if f, ok := two[family]; ok {
		a, err := ints("x", strings.Split(f.args, "x")...)
		if err != nil {
			return nil, err
		}
		return f.gen(a[0], a[1])
	}
	switch family {
	case "file":
		f, err := os.Open(rest)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	case "petersen":
		return Petersen(), nil
	case "icosahedron":
		return Icosahedron(), nil
	case "gnp":
		// P is a probability: parse it apart, then check N and SEED.
		fields := strings.Split(rest, ":")
		if len(fields) != 3 {
			return nil, bad("want gnp:N:P:SEED")
		}
		p, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, bad("P = %q is not a number", fields[1])
		}
		rest = fields[0] + ":" + fields[2]
		a, err := ints(":", "N", "SEED")
		if err != nil {
			return nil, err
		}
		return Gnp(a[0], p, int64(a[1]))
	case "regular":
		a, err := ints(":", "N", "D", "SEED")
		if err != nil {
			return nil, err
		}
		return RandomRegular(a[0], a[1], int64(a[2]))
	}
	return nil, bad("unknown family %q", family)
}
