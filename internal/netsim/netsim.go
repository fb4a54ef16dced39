// Package netsim is a discrete-event simulator for message delivery over
// a fixed routing, modeling the system described in the paper's
// introduction: messages travel along precomputed routes carried in
// their headers (source routing), the expensive processing (encryption,
// error-correction analysis) happens at route endpoints, and when faults
// sever a route the endpoints stitch together a sequence of surviving
// routes. The number of route traversals — bounded by the diameter of
// the surviving route graph — dominates total transmission time.
//
// The simulator also implements the paper's route-counter broadcast: a
// node reconstructs global knowledge (e.g. a new route table) by
// flooding along all of its routes with a counter that is incremented
// per route traversal and capped by the surviving diameter bound.
//
// RunFailoverWorkload replays the same message stream over
// static-failover tables instead: every walk segment of a message is
// one routing.FailoverTables.WalkUnderFaults call under the current
// faults, with no cached state between messages. It counts what the
// tables deliver, not what the routing can reach: a message whose pair
// has no table entries blackholes at its source, so the tables of a
// routing that covers few pairs deliver few messages even with no
// faults (23 of 300 on the failover-ccc6 benchmark workload, whose
// tables cover 12,312 of 147,072 ordered pairs), while RunWorkload
// stitches routes and delivers all 300. The package uses only the
// graph and routing layers.
package netsim

import (
	"container/heap"
	"errors"
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Errors returned by the simulator.
var (
	// ErrUnreachable indicates no surviving route sequence connects the
	// endpoints.
	ErrUnreachable = errors.New("netsim: destination unreachable in surviving route graph")
	// ErrFaulty indicates a faulty source or destination.
	ErrFaulty = errors.New("netsim: endpoint is faulty")
)

// Params configures link and endpoint costs. The defaults (zero value)
// give per-hop cost 1 and endpoint cost 10, matching the paper's
// assumption that endpoint processing dominates.
type Params struct {
	HopCost      int // time units per link traversal (default 1)
	EndpointCost int // time units per route-endpoint processing (default 10)
}

func (p Params) hop() int {
	if p.HopCost <= 0 {
		return 1
	}
	return p.HopCost
}

func (p Params) endpoint() int {
	if p.EndpointCost <= 0 {
		return 10
	}
	return p.EndpointCost
}

// Network simulates a network running a fixed routing with a (dynamic)
// set of faulty nodes and links.
type Network struct {
	r      *routing.Routing
	params Params
	faults *routing.FaultSet
	// surviving is recomputed lazily after fault changes; nodeOnly is
	// its node-faults-only counterpart, used to attribute unreachables
	// to link cuts versus node failures.
	surviving *graph.Digraph
	nodeOnly  *graph.Digraph
	now       int
}

// New creates a simulator over a routing with no faults.
func New(r *routing.Routing, params Params) *Network {
	return &Network{r: r, params: params, faults: routing.NewFaultSet(r.Graph().N())}
}

// Now returns the simulation clock.
func (nw *Network) Now() int { return nw.now }

// invalidate drops every cache derived from the fault state.
func (nw *Network) invalidate() {
	nw.surviving = nil
	nw.nodeOnly = nil
}

// Fail marks a node faulty. Subsequent sends observe the new fault set.
// A node outside 0..n-1 is ignored.
func (nw *Network) Fail(v int) {
	nw.faults.FailNode(v)
	nw.invalidate()
}

// Repair clears a node's fault.
func (nw *Network) Repair(v int) {
	nw.faults.RepairNode(v)
	nw.invalidate()
}

// FailLink marks the undirected link {u, v} faulty: every route
// traversing it is dead until repaired.
func (nw *Network) FailLink(u, v int) {
	nw.faults.FailLink(u, v)
	nw.invalidate()
}

// RepairLink clears the link fault on {u, v}.
func (nw *Network) RepairLink(u, v int) {
	nw.faults.RepairLink(u, v)
	nw.invalidate()
}

// Faults returns a copy of the current node fault set.
func (nw *Network) Faults() *graph.Bitset { return nw.faults.NodeFaults() }

// LinkFaults returns the currently failed links, normalized and sorted.
func (nw *Network) LinkFaults() []routing.EdgeFault { return nw.faults.LinkFaults() }

// SurvivingGraph returns the current surviving route graph under both
// node and link faults, recomputing it after fault changes.
func (nw *Network) SurvivingGraph() *graph.Digraph {
	if nw.surviving == nil {
		nw.surviving = nw.r.SurvivingGraphMixed(nw.Faults(), nw.LinkFaults())
	}
	return nw.surviving
}

// reachableNodesOnly reports whether dst is reachable from src in the
// surviving route graph when only node faults (not link cuts) apply —
// the counterfactual that attributes an unreachable to the link cuts.
func (nw *Network) reachableNodesOnly(src, dst int) bool {
	if nw.nodeOnly == nil {
		nw.nodeOnly = nw.r.SurvivingGraph(nw.Faults())
	}
	return routeParents(nw.nodeOnly, src, dst)[dst] != -2
}

// routeParents runs a BFS over the surviving route graph from src,
// stopping once dst is labeled, and returns the parent array (-2 =
// unreached, -1 = root).
func routeParents(d *graph.Digraph, src, dst int) []int {
	n := d.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[src] = -1
	queue := []int{src}
	for head := 0; head < len(queue) && parent[dst] == -2; head++ {
		u := queue[head]
		for _, v := range d.OutNeighbors(u) {
			if parent[v] != -2 || d.Disabled(v) {
				continue
			}
			parent[v] = u
			queue = append(queue, v)
		}
	}
	return parent
}

// Delivery reports one successful message delivery.
type Delivery struct {
	Src, Dst        int
	Routes          []routing.Path // the surviving routes traversed, in order
	RouteTraversals int            // len(Routes)
	Hops            int            // total link traversals
	Time            int            // arrival time on the simulation clock
}

// Send routes a message from src to dst: it finds the shortest sequence
// of surviving routes (a shortest path in the surviving route graph) and
// simulates traversing them, charging HopCost per link and EndpointCost
// per route endpoint. The clock advances to the arrival time.
func (nw *Network) Send(src, dst int) (*Delivery, error) {
	if nw.faults.NodeFaulty(src) || nw.faults.NodeFaulty(dst) {
		return nil, fmt.Errorf("%w: %d -> %d", ErrFaulty, src, dst)
	}
	if src == dst {
		return &Delivery{Src: src, Dst: dst, Time: nw.now}, nil
	}
	d := nw.SurvivingGraph()
	// BFS in the surviving route graph for the route sequence.
	parent := routeParents(d, src, dst)
	if parent[dst] == -2 {
		return nil, fmt.Errorf("%w: %d -> %d (faults %v)", ErrUnreachable, src, dst, nw.Faults())
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	del := &Delivery{Src: src, Dst: dst}
	for i := len(rev) - 1; i > 0; i-- {
		p, ok := nw.r.Get(rev[i], rev[i-1])
		if !ok {
			return nil, fmt.Errorf("netsim: internal: surviving arc (%d,%d) without route", rev[i], rev[i-1])
		}
		del.Routes = append(del.Routes, p)
		del.Hops += len(p) - 1
	}
	del.RouteTraversals = len(del.Routes)
	del.Time = nw.now + del.Hops*nw.params.hop() + del.RouteTraversals*nw.params.endpoint()
	nw.now = del.Time
	return del, nil
}

// event is a pending route-traversal completion in the broadcast flood.
type event struct {
	time    int
	node    int
	counter int
	seq     int // tie-break for determinism
}

// eventQueue is a min-heap on (time, seq).
type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; x := old[len(old)-1]; *q = old[:len(old)-1]; return x }

// BroadcastResult reports a route-counter broadcast.
type BroadcastResult struct {
	Origin     int
	Reached    []int // nonfaulty nodes reached, sorted
	MaxCounter int   // largest route counter at any first arrival
	Discarded  int   // messages dropped because the counter exceeded the bound
	AllReached bool  // every nonfaulty node was reached
}

// Broadcast implements the paper's broadcast-with-route-counter: the
// origin sends along all of its surviving routes with counter 1; each
// first-time recipient forwards along all of its surviving routes with
// the counter incremented; messages whose counter would exceed bound are
// discarded. With bound >= diam(R(G,ρ)/F), every surviving node is
// reached (Section 1); the result records whether that held.
func (nw *Network) Broadcast(origin, bound int) (*BroadcastResult, error) {
	if nw.faults.NodeFaulty(origin) {
		return nil, fmt.Errorf("%w: origin %d", ErrFaulty, origin)
	}
	d := nw.SurvivingGraph()
	res := &BroadcastResult{Origin: origin}
	n := d.N()
	seen := make([]bool, n)
	seen[origin] = true
	var q eventQueue
	seq := 0
	push := func(from, counter, at int) {
		for _, v := range d.OutNeighbors(from) {
			if d.Disabled(v) {
				continue
			}
			if counter > bound {
				res.Discarded++
				continue
			}
			p, _ := nw.r.Get(from, v)
			cost := (len(p)-1)*nw.params.hop() + nw.params.endpoint()
			heap.Push(&q, event{time: at + cost, node: v, counter: counter, seq: seq})
			seq++
		}
	}
	push(origin, 1, nw.now)
	for q.Len() > 0 {
		ev := heap.Pop(&q).(event)
		if seen[ev.node] {
			continue
		}
		seen[ev.node] = true
		if ev.counter > res.MaxCounter {
			res.MaxCounter = ev.counter
		}
		push(ev.node, ev.counter+1, ev.time)
	}
	res.AllReached = true
	for v := 0; v < n; v++ {
		if nw.faults.NodeFaulty(v) {
			continue
		}
		if seen[v] {
			res.Reached = append(res.Reached, v)
		} else {
			res.AllReached = false
		}
	}
	return res, nil
}
