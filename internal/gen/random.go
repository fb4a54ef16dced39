package gen

import (
	"fmt"
	"math/rand"

	"ftroute/internal/graph"
)

// Gnp returns an Erdős–Rényi random graph G(n, p): every unordered pair
// is an edge independently with probability p. The result is
// deterministic in (n, p, seed). This is the model of the paper's
// Lemma 24 / Theorem 25 (two-trees property for p <= c·n^ε/n).
func Gnp(n int, p float64, seed int64) (*graph.Graph, error) {
	if n < 1 || n > graph.MaxNodes || !(p >= 0 && p <= 1) { // NaN fails both
		return nil, fmt.Errorf("%w: Gnp(%d, %v)", ErrBadParam, n, p)
	}
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g, nil
}

// GnpConnected repeatedly samples G(n, p) with successive seeds until a
// connected instance appears (at most maxTries attempts). It returns the
// graph and the seed that produced it.
func GnpConnected(n int, p float64, seed int64, maxTries int) (*graph.Graph, int64, error) {
	for i := 0; i < maxTries; i++ {
		g, err := Gnp(n, p, seed+int64(i))
		if err != nil {
			return nil, 0, err
		}
		if g.IsConnected(nil) {
			return g, seed + int64(i), nil
		}
	}
	return nil, 0, fmt.Errorf("%w: no connected G(%d,%v) in %d tries", ErrBadParam, n, p, maxTries)
}

// RandomRegular returns a random d-regular graph on n nodes using the
// Steger–Wormald stub-matching heuristic: stubs are paired one edge at a
// time, rejecting loops and parallel edges locally; if the process
// paints itself into a corner (only conflicting stubs remain) it
// restarts. Unlike whole-pairing rejection, this succeeds quickly even
// for moderate d (the rejection probability per edge is O(d²/n) instead
// of O(e^{d²}) per pairing). n*d must be even and d < n. The result is
// deterministic in (n, d, seed).
//
// Random 3-regular graphs are asymptotically almost surely 3-connected
// and locally tree-like, which makes them the natural family for the
// paper's two-trees (bipolar) and neighborhood-set (circular)
// constructions on "general" networks.
func RandomRegular(n, d int, seed int64) (*graph.Graph, error) {
	if d < 1 || d >= n || n > graph.MaxNodes || (n*d)%2 != 0 {
		return nil, fmt.Errorf("%w: RandomRegular(%d,%d)", ErrBadParam, n, d)
	}
	rng := rand.New(rand.NewSource(seed))
	const maxRestarts = 500
	for attempt := 0; attempt < maxRestarts; attempt++ {
		if g, ok := tryStegerWormald(n, d, rng); ok {
			return g, nil
		}
	}
	return nil, fmt.Errorf("%w: stub matching failed for RandomRegular(%d,%d) after %d restarts", ErrBadParam, n, d, maxRestarts)
}

// tryStegerWormald attempts one complete stub matching; it reports
// failure when the remaining stubs admit no legal pair.
func tryStegerWormald(n, d int, rng *rand.Rand) (*graph.Graph, bool) {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	g := graph.New(n)
	for len(stubs) > 0 {
		// Try a bounded number of random draws before declaring the
		// tail stuck; d*d+50 draws make a false "stuck" vanishingly
		// unlikely while keeping restarts cheap.
		paired := false
		for try := 0; try < d*d+50; try++ {
			i := rng.Intn(len(stubs))
			j := rng.Intn(len(stubs))
			if i == j {
				continue
			}
			u, v := stubs[i], stubs[j]
			if u == v || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v)
			// Remove both stubs (larger index first).
			if i < j {
				i, j = j, i
			}
			stubs[i] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			stubs[j] = stubs[len(stubs)-1]
			stubs = stubs[:len(stubs)-1]
			paired = true
			break
		}
		if !paired {
			return nil, false
		}
	}
	return g, true
}

// RandomRegularConnected samples random d-regular graphs with successive
// seeds until a connected one appears.
func RandomRegularConnected(n, d int, seed int64, maxTries int) (*graph.Graph, int64, error) {
	for i := 0; i < maxTries; i++ {
		g, err := RandomRegular(n, d, seed+int64(i))
		if err != nil {
			return nil, 0, err
		}
		if g.IsConnected(nil) {
			return g, seed + int64(i), nil
		}
	}
	return nil, 0, fmt.Errorf("%w: no connected random %d-regular graph on %d nodes in %d tries", ErrBadParam, d, n, maxTries)
}
