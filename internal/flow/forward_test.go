package flow

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// forward is the forward-only Dinic that MaxFlow's two-ended phases
// replaced, kept as their reference: levels by one breadth-first search
// from s that stops at t's level, an augmenting DFS over every arc into
// the next level, a DecomposePaths that reads the flow of every arc up
// front, and a restore that copies every saved arc back. It runs on a
// Network of its own, built arc for arc like the one under test, but
// reads and writes its arcs only through these methods, so the network
// under test's undo list is checked against a full copy.
type forward struct {
	nw       *Network
	saved    []arc
	level    []int32
	iter     []int32
	queue    []int32
	flowLeft []int32
}

func (r *forward) save() { r.saved = append(r.saved[:0], r.nw.arcs...) }

func (r *forward) restore() {
	if len(r.saved) != len(r.nw.arcs) {
		panic("forward: restore without a save of the current arcs")
	}
	copy(r.nw.arcs, r.saved)
}

func (r *forward) setCapacity(id, capacity int) { r.nw.arcs[id].cap = int32(capacity) }

// bfsLevels builds the level graph; returns false if t is unreachable.
// It stops expanding at t's level: a node at that level other than t
// cannot reach t along strictly increasing levels.
func (r *forward) bfsLevels(s, t int) bool {
	for i := range r.level {
		r.level[i] = -1
	}
	queue := append(r.queue[:0], int32(s))
	r.level[s] = 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if lt := r.level[t]; lt >= 0 && r.level[u] >= lt {
			break
		}
		for _, id := range r.nw.head[u] {
			a := r.nw.arcs[id]
			if a.cap > 0 && r.level[a.to] < 0 {
				r.level[a.to] = r.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	r.queue = queue
	return r.level[t] >= 0
}

// dfsAugment pushes up to limit units of flow from u toward t along the
// level graph.
func (r *forward) dfsAugment(u, t int, limit int32) int32 {
	if u == t {
		return limit
	}
	for ; r.iter[u] < int32(len(r.nw.head[u])); r.iter[u]++ {
		id := r.nw.head[u][r.iter[u]]
		a := &r.nw.arcs[id]
		if a.cap <= 0 || r.level[a.to] != r.level[u]+1 {
			continue
		}
		got := r.dfsAugment(int(a.to), t, min(limit, a.cap))
		if got > 0 {
			a.cap -= got
			r.nw.arcs[id^1].cap += got
			return got
		}
	}
	return 0
}

func (r *forward) maxFlow(s, t, limit int) int {
	if s == t {
		return 0
	}
	if len(r.level) != r.nw.n {
		r.level = make([]int32, r.nw.n)
		r.iter = make([]int32, r.nw.n)
	}
	total := 0
	for total < limit && r.bfsLevels(s, t) {
		for i := range r.iter {
			r.iter[i] = 0
		}
		for total < limit {
			got := r.dfsAugment(s, t, int32(min(limit-total, Inf)))
			if got == 0 {
				break
			}
			total += int(got)
		}
	}
	return total
}

func (r *forward) decomposePaths(s, t, max int) [][]int {
	nw := r.nw
	if len(r.flowLeft) != len(nw.arcs) {
		r.flowLeft = make([]int32, len(nw.arcs))
	}
	flowLeft := r.flowLeft
	for id := 0; id < len(nw.arcs); id += 2 {
		flowLeft[id] = 0
		if f := nw.arcs[id^1].cap; f > 0 { // reverse residual == pushed flow
			flowLeft[id] = f
		}
	}
	var paths [][]int
	for max < 0 || len(paths) < max {
		path := []int{s}
		u := s
		ok := false
		for steps := 0; steps <= len(nw.arcs); steps++ {
			if u == t {
				ok = true
				break
			}
			advanced := false
			for _, id := range nw.head[u] {
				if id%2 == 1 || flowLeft[id] == 0 {
					continue
				}
				flowLeft[id]--
				u = int(nw.arcs[id].to)
				path = append(path, u)
				advanced = true
				break
			}
			if !advanced {
				break
			}
		}
		if !ok {
			break
		}
		paths = append(paths, path)
	}
	return paths
}

// byteSource hands out the fuzz input one byte at a time, and zeros once
// it runs dry.
type byteSource []byte

func (b *byteSource) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// capacityOf maps a byte to a capacity: 0, 1, a small value or Inf.
func capacityOf(v int) int {
	switch v % 8 {
	case 0:
		return 0
	case 1, 2, 3:
		return 1
	case 7:
		return Inf
	default:
		return v%5 + 2
	}
}

// maxDecomposed caps the paths a check decomposes: an Inf arc can carry
// 2^31-1 units.
const maxDecomposed = 64

// twinNetworks builds the same network twice from data: either a random
// multigraph with capacities 0, 1, small or Inf (self-loops and parallel
// arcs included), or the vertex-split network of a random graph with a
// super-sink, shaped like connectivity.Split's. It returns the network
// under test, the forward reference over its twin, and the arc ids.
func twinNetworks(src *byteSource) (*Network, *forward, []int) {
	if src.next()%2 == 0 {
		n := 2 + src.next()%11
		m := src.next() % 40
		a, b := NewNetwork(n), NewNetwork(n)
		ids := make([]int, 0, m)
		for i := 0; i < m; i++ {
			u, v, c := src.next()%n, src.next()%n, capacityOf(src.next())
			ids = append(ids, a.AddArc(u, v, c))
			b.AddArc(u, v, c)
		}
		return a, &forward{nw: b}, ids
	}
	g := 2 + src.next()%9 // graph nodes; node v is 2v -> 2v+1, the sink is 2g
	a, b := NewNetwork(2*g+1), NewNetwork(2*g+1)
	var ids []int
	add := func(u, v, c int) {
		ids = append(ids, a.AddArc(u, v, c))
		b.AddArc(u, v, c)
	}
	for v := 0; v < g; v++ {
		add(2*v, 2*v+1, 1)
		add(2*v, 2*g, 0)
	}
	edgeCap := 1
	if src.next()%3 == 0 {
		edgeCap = Inf
	}
	for e := src.next() % (2 * g * g); e > 0; e-- {
		u, v := src.next()%g, src.next()%g
		if u != v {
			add(2*u+1, 2*v, edgeCap)
			add(2*v+1, 2*u, edgeCap)
		}
	}
	return a, &forward{nw: b}, ids
}

// checkMatchesForward runs the operations that data encodes on a
// network and on its forward-only twin, and fails at the first call
// after which the two differ in flow value, in any arc's residual
// capacity, in the decomposed paths (all of them and a prefix) or in
// the residual reachable set. The operations are MaxFlow calls with a
// limit, repeated on one residual; Save; Restore; and a Restore that
// closes or opens arcs with SetCapacity before the next query. Arcs are
// compared after every operation, so the undo list must restore exactly
// what the twin's full copy does.
func checkMatchesForward(t *testing.T, data []byte) {
	src := byteSource(data)
	nw, ref, ids := twinNetworks(&src)
	n := nw.N()
	nw.Save()
	ref.save()
	for op := 0; op < 24 && len(src) > 0; op++ {
		switch src.next() % 6 {
		case 0, 1, 2:
			s, dst := src.next()%n, src.next()%n
			limit := []int{1, 2, 3, Inf}[src.next()%4]
			got, want := nw.MaxFlow(s, dst, limit), ref.maxFlow(s, dst, limit)
			if got != want {
				t.Fatalf("op %d: MaxFlow(%d, %d, %d) = %d, forward %d", op, s, dst, limit, got, want)
			}
			if !reflect.DeepEqual(nw.arcs, ref.nw.arcs) {
				t.Fatalf("op %d: MaxFlow(%d, %d, %d): residuals\n%v\nforward\n%v", op, s, dst, limit, nw.arcs, ref.nw.arcs)
			}
			k := 1 + src.next()%3
			for _, max := range []int{maxDecomposed, k} {
				if got, want := nw.DecomposePaths(s, dst, max), ref.decomposePaths(s, dst, max); !reflect.DeepEqual(got, want) {
					t.Fatalf("op %d: DecomposePaths(%d, %d, %d) = %v, forward %v", op, s, dst, max, got, want)
				}
			}
			if got, want := nw.MinCutReachable(s), ref.nw.MinCutReachable(s); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: MinCutReachable(%d) = %v, forward %v", op, s, got, want)
			}
		case 3:
			nw.Save()
			ref.save()
		case 4:
			nw.Restore()
			ref.restore()
		case 5:
			nw.Restore()
			ref.restore()
			if len(ids) == 0 {
				continue
			}
			for k := 1 + src.next()%3; k > 0; k-- {
				id, c := ids[src.next()%len(ids)], []int{0, 0, 1, Inf}[src.next()%4]
				nw.SetCapacity(id, c)
				ref.setCapacity(id, c)
			}
		}
		if !reflect.DeepEqual(nw.arcs, ref.nw.arcs) {
			t.Fatalf("op %d: arcs\n%v\nforward\n%v", op, nw.arcs, ref.nw.arcs)
		}
	}
}

// TestMaxFlowMatchesForward drives random networks and operation lists
// through checkMatchesForward.
func TestMaxFlowMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 40+rng.Intn(400))
		rng.Read(data)
		checkMatchesForward(t, data)
	}
}

// TestMaxFlowMatchesForwardAcrossWrap answers every (s, t) query on a
// network twice, restoring it before each one. The second pass starts
// the label base and the decomposition stamp a few calls short of
// wrapping, so its phases and decompositions cross the wrap with the
// labels and records of both passes still in place.
func TestMaxFlowMatchesForwardAcrossWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	wrapped := 0
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, 200+rng.Intn(200))
		rng.Read(data)
		src := byteSource(data)
		nw, ref, _ := twinNetworks(&src)
		nw.Save()
		ref.save()
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				n := uint32(nw.N())
				nw.base = math.MaxUint32 - 2*n - uint32(rng.Intn(4))*n
				nw.stamp = math.MaxUint32 - uint32(rng.Intn(3))
			}
			for s := 0; s < nw.N(); s++ {
				for dst := 0; dst < nw.N(); dst++ {
					nw.Restore()
					ref.restore()
					before := nw.base
					got, want := nw.MaxFlow(s, dst, Inf), ref.maxFlow(s, dst, Inf)
					if nw.base < before {
						wrapped++
					}
					if got != want || !reflect.DeepEqual(nw.arcs, ref.nw.arcs) {
						t.Fatalf("trial %d pass %d: MaxFlow(%d, %d) = %d, forward %d, residuals equal: %v", trial, pass, s, dst, got, want, reflect.DeepEqual(nw.arcs, ref.nw.arcs))
					}
					if got, want := nw.DecomposePaths(s, dst, maxDecomposed), ref.decomposePaths(s, dst, maxDecomposed); !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d pass %d: DecomposePaths(%d, %d) = %v, forward %v", trial, pass, s, dst, got, want)
					}
				}
			}
		}
	}
	if wrapped == 0 {
		t.Fatal("no call wrapped the label base")
	}
}

// FuzzMaxFlowMatchesForward is checkMatchesForward on fuzzed input:
// the network, its capacities and the operation list all come from the
// bytes.
func FuzzMaxFlowMatchesForward(f *testing.F) {
	f.Add([]byte{0, 4, 6, 0, 1, 1, 0, 2, 1, 1, 3, 1, 2, 3, 1, 1, 2, 1, 2, 0, 3, 7, 0, 0, 3, 3, 4, 0, 0, 3, 0})
	f.Add([]byte{1, 4, 2, 24, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 0, 1, 8, 0, 5, 0, 1, 3, 3, 1, 7, 0, 4, 2, 0})
	f.Add([]byte{0, 9, 30, 0, 1, 7, 1, 2, 7, 2, 9, 7, 0, 3, 1, 3, 9, 1, 1, 3, 5, 5, 0, 8, 3, 0, 9, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesForward(t, data)
	})
}
