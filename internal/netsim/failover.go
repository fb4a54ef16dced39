package netsim

import (
	"fmt"

	"ftroute/internal/routing"
)

// This file runs workloads over static-failover tables instead of
// source-routed route sequences: each message is forwarded hop by hop
// through routing.FailoverTables.WalkUnderFaults under the network's
// current node and link faults. A message whose walk blackholes or
// loops is not necessarily lost — the stuck node acts as a new source
// and retries the walk toward the destination (the endpoint-stitching
// idea of the paper, applied at the table level), up to a bounded
// number of retries. The run degrades gracefully: every message ends
// in a per-outcome counter, never an aborted simulation.

// FailoverParams configures a failover workload run.
type FailoverParams struct {
	// Tables are the static-failover tables every message is forwarded
	// by. Required.
	Tables *routing.FailoverTables
	// Retries bounds how many times a stuck message restarts its walk
	// from the node it got stuck at (0 = give up on first failure).
	Retries int
}

// FailoverStats summarizes a failover workload run. Messages =
// Delivered + Blackhole + Loop + SkippedFault.
type FailoverStats struct {
	Messages     int
	Delivered    int
	Blackhole    int // gave up with no live entry (after retries)
	Loop         int // gave up in a forwarding loop (after retries)
	SkippedFault int // sends whose endpoint was faulty
	Retries      int // walk restarts from a stuck node
	Failovers    int // hops taken on a backup (rank > 0) entry
	TotalHops    int // link traversals across all walks, including failed ones
	MaxHops      int // worst link traversals spent on one message
	// Latency quantiles over delivered messages (simulation time units
	// per message, not cumulative clock).
	P50, P99, Max int
}

// String renders the stats compactly.
func (s FailoverStats) String() string {
	return fmt.Sprintf("delivered=%d/%d blackhole=%d loop=%d skipped=%d retries=%d failovers=%d hops(total=%d,max=%d) latency(p50=%d,p99=%d,max=%d)",
		s.Delivered, s.Messages, s.Blackhole, s.Loop, s.SkippedFault, s.Retries, s.Failovers, s.TotalHops, s.MaxHops, s.P50, s.P99, s.Max)
}

// RunFailoverWorkload issues the workload's messages in order, applying
// scheduled node and link fault events between sends, forwarding each
// message through the failover tables under the network's current
// faults. The message sequence is drawn exactly like RunWorkload's, so
// the two runs are directly comparable under the same Workload and
// schedule. Each walk segment (the initial walk plus each retry) is one
// fp.Tables.WalkUnderFaults call under the current faults, charged
// EndpointCost once plus HopCost per link, and the clock advances by
// each message's total time.
//
// Messages are drawn over all ordered pairs, not over the pairs the
// tables hold, and a pair without entries blackholes at its source. So
// tables of a routing that covers few pairs deliver few messages even
// without faults: on the circular routing of CCC(6) (the failover-ccc6
// benchmark workload) the tables hold entries for 12,312 of the 147,072
// ordered pairs and deliver 23 of 300 messages with no fault at all,
// where RunWorkload, which stitches routes, delivers all 300.
func (nw *Network) RunFailoverWorkload(wl Workload, schedule []FaultEvent, fp FailoverParams) (FailoverStats, error) {
	if fp.Tables == nil {
		return FailoverStats{}, fmt.Errorf("netsim: RunFailoverWorkload requires tables")
	}
	if n := nw.r.Graph().N(); fp.Tables.N() != n {
		return FailoverStats{}, fmt.Errorf("netsim: tables over %d nodes, graph has %d", fp.Tables.N(), n)
	}
	var stats FailoverStats
	var err error
	stats.P50, stats.P99, stats.Max, err = nw.replay(wl, schedule, func(src, dst int) (int, bool, error) {
		stats.Messages++
		if nw.faults.NodeFaulty(src) || nw.faults.NodeFaulty(dst) {
			stats.SkippedFault++
			return 0, false, nil
		}
		hops, segments := 0, 0
		var w routing.WalkResult
		for at := src; ; {
			w = fp.Tables.WalkUnderFaults(at, dst, nw.faults)
			segments++
			hops += w.Hops
			stats.Failovers += w.Failovers
			// Give up when delivered, out of retries, or the walk made no
			// progress (restarting from the same node would repeat it
			// verbatim).
			stuck := w.Path[len(w.Path)-1]
			if w.Outcome == routing.Delivered || segments > fp.Retries || stuck == at {
				break
			}
			at = stuck
			stats.Retries++
		}
		stats.TotalHops += hops
		stats.MaxHops = max(stats.MaxHops, hops)
		switch w.Outcome {
		case routing.Delivered:
			stats.Delivered++
			t := hops*nw.params.hop() + segments*nw.params.endpoint()
			nw.now += t
			return t, true, nil
		case routing.Blackhole:
			stats.Blackhole++
		default:
			stats.Loop++
		}
		return 0, false, nil
	})
	return stats, err
}
