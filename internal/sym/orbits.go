package sym

// Orbits returns, for each of n points, the smallest point in its orbit
// under the given permutations (closure is taken, so generators
// suffice). Points with the same value lie in the same orbit. The link
// and mixed orbits of a graph are the Orbits of its node permutations
// lifted by graph.Items.Lift.
func Orbits(n int, perms [][]int) []int {
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, p := range perms {
		for i, v := range p {
			union(i, v)
		}
	}
	minOf := make(map[int]int, n)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := minOf[r]; !ok {
			minOf[r] = i // ascending scan: first member is the minimum
		}
		out[i] = minOf[r]
	}
	return out
}

// OrbitCount counts the distinct orbits in an Orbits result.
func OrbitCount(orbits []int) int {
	count := 0
	for i, r := range orbits {
		if r == i {
			count++
		}
	}
	return count
}
