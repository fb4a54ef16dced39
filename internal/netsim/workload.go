package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// drawPair draws one (src, dst) request from the workload's stream.
// RunWorkload and RunFailoverWorkload draw every message through
// replay, so the same Workload produces the same message sequence under
// either forwarding model.
func drawPair(rng *rand.Rand, n int, wl Workload) (src, dst int) {
	src = rng.Intn(n)
	dst = rng.Intn(n)
	if wl.HotspotFraction > 0 && rng.Float64() < wl.HotspotFraction {
		dst = wl.Hotspot
	}
	for dst == src {
		dst = (dst + 1) % n
	}
	return src, dst
}

// Workload generates message send requests for the simulator.
type Workload struct {
	// Messages is the number of sends to issue.
	Messages int
	// Seed drives the deterministic source/destination choice.
	Seed int64
	// HotspotFraction, in [0,1), biases destinations: that fraction of
	// messages targets node Hotspot (a server/sink pattern); the rest
	// are uniform random pairs.
	HotspotFraction float64
	Hotspot         int
}

// FaultEvent is a scheduled change in the health of a node or a link.
// With Link false the event fails/repairs Node; with Link true it
// fails/repairs the undirected link {U, V} and Node is ignored.
type FaultEvent struct {
	AfterMessage int // apply before issuing this message index (0-based)
	Node         int
	Link         bool // true = the event targets link {U, V}
	U, V         int  // link endpoints when Link is true
	Repair       bool // false = fail, true = repair
}

// checkRun rejects a run over n nodes before its first send: a
// negative message count, fewer than two nodes, a hotspot outside
// 0..n-1 when hotspot sends are drawn, or a node event or link event
// endpoint outside 0..n-1. A link event between two in-range nodes
// that share no edge is accepted; it kills no route.
func checkRun(wl Workload, schedule []FaultEvent, n int) error {
	outside := func(v int) bool { return v < 0 || v >= n }
	switch {
	case wl.Messages < 0:
		return fmt.Errorf("netsim: negative message count")
	case n < 2:
		return fmt.Errorf("netsim: need at least two nodes")
	case wl.HotspotFraction > 0 && outside(wl.Hotspot):
		return fmt.Errorf("netsim: hotspot %d outside 0..%d", wl.Hotspot, n-1)
	}
	for _, ev := range schedule {
		if ev.Link && (outside(ev.U) || outside(ev.V)) {
			return fmt.Errorf("netsim: fault event link {%d,%d} outside 0..%d", ev.U, ev.V, n-1)
		}
		if !ev.Link && outside(ev.Node) {
			return fmt.Errorf("netsim: fault event node %d outside 0..%d", ev.Node, n-1)
		}
	}
	return nil
}

// apply replays the event onto the network.
func (ev FaultEvent) apply(nw *Network) {
	switch {
	case ev.Link && ev.Repair:
		nw.RepairLink(ev.U, ev.V)
	case ev.Link:
		nw.FailLink(ev.U, ev.V)
	case ev.Repair:
		nw.Repair(ev.Node)
	default:
		nw.Fail(ev.Node)
	}
}

// Stats summarizes a workload run.
type Stats struct {
	Delivered   int
	Unreachable int // sends with no surviving route sequence even ignoring link cuts
	// UnreachableLink counts sends that only the current link cuts
	// strand: the destination was reachable in the node-faults-only
	// surviving graph. Separating the two shows how much damage the
	// edge faults add on top of the node faults.
	UnreachableLink int
	SkippedFault    int // sends whose endpoint was faulty
	TotalRoutes     int // total route traversals across deliveries
	MaxRoutes       int // worst route traversals in one delivery
	TotalHops       int
	// Latency quantiles over delivered messages (simulation time units
	// per message, not cumulative clock).
	P50, P99, Max int
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("delivered=%d unreachable=%d unreachable-link=%d skipped=%d routes(total=%d,max=%d) hops=%d latency(p50=%d,p99=%d,max=%d)",
		s.Delivered, s.Unreachable, s.UnreachableLink, s.SkippedFault, s.TotalRoutes, s.MaxRoutes, s.TotalHops, s.P50, s.P99, s.Max)
}

// RunWorkload issues the workload's messages in order, applying
// scheduled fault events between sends, and returns aggregate delivery
// statistics. Unreachable destinations and faulty endpoints are counted,
// not fatal: a real network keeps operating.
func (nw *Network) RunWorkload(wl Workload, schedule []FaultEvent) (Stats, error) {
	var stats Stats
	var err error
	stats.P50, stats.P99, stats.Max, err = nw.replay(wl, schedule, func(src, dst int) (int, bool, error) {
		start := nw.Now()
		del, err := nw.Send(src, dst)
		switch {
		case err == nil:
			stats.Delivered++
			stats.TotalRoutes += del.RouteTraversals
			stats.TotalHops += del.Hops
			stats.MaxRoutes = max(stats.MaxRoutes, del.RouteTraversals)
			return del.Time - start, true, nil
		case errors.Is(err, ErrUnreachable):
			if len(nw.LinkFaults()) > 0 && nw.reachableNodesOnly(src, dst) {
				stats.UnreachableLink++
			} else {
				stats.Unreachable++
			}
		case errors.Is(err, ErrFaulty):
			stats.SkippedFault++
		default:
			return 0, false, err
		}
		return 0, false, nil
	})
	return stats, err
}

// replay is the message loop of RunWorkload and RunFailoverWorkload.
// It checks the run, then for each message applies the scheduled fault
// events due before it, draws the message's pair and hands it to send,
// which returns the message's latency and whether it was delivered. It
// returns the P50, P99 and largest latency over the delivered messages,
// and stops at the first error send returns.
func (nw *Network) replay(wl Workload, schedule []FaultEvent, send func(src, dst int) (int, bool, error)) (p50, p99, most int, err error) {
	n := nw.r.Graph().N()
	if err := checkRun(wl, schedule, n); err != nil {
		return 0, 0, 0, err
	}
	events := append([]FaultEvent(nil), schedule...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].AfterMessage < events[j].AfterMessage })
	rng := rand.New(rand.NewSource(wl.Seed))
	var latencies []int
	for i, next := 0, 0; i < wl.Messages; i++ {
		for ; next < len(events) && events[next].AfterMessage <= i; next++ {
			events[next].apply(nw)
		}
		src, dst := drawPair(rng, n, wl)
		latency, delivered, err := send(src, dst)
		if err != nil {
			return 0, 0, 0, err
		}
		if delivered {
			latencies = append(latencies, latency)
		}
	}
	if len(latencies) == 0 {
		return 0, 0, 0, nil
	}
	sort.Ints(latencies)
	return latencies[len(latencies)/2], latencies[len(latencies)*99/100], latencies[len(latencies)-1], nil
}
