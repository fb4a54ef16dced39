package netsim

import (
	"fmt"
	"sort"

	"ftroute/internal/eval"
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
// schedule. Each walk segment (the initial walk plus each retry) is
// charged EndpointCost once plus HopCost per link, and the clock
// advances by each message's total time.
//
// Walks are served from one eval.WalkEngine snapshot per fault epoch:
// the engine caches every pair's walk and a fault event re-walks only
// the affected pairs, instead of every message re-walking from scratch.
// Two cases fall back to the per-walk WalkUnderFaults oracle, with
// identical results: a fault epoch that cuts a link absent from the
// graph (the engine's cut universe is g.Edges()), and a retry segment
// whose (stuck, dst) pair holds no table entries.
func (nw *Network) RunFailoverWorkload(wl Workload, schedule []FaultEvent, fp FailoverParams) (FailoverStats, error) {
	if fp.Tables == nil {
		return FailoverStats{}, fmt.Errorf("netsim: RunFailoverWorkload requires tables")
	}
	n := nw.r.Graph().N()
	if err := checkRun(wl, schedule, n); err != nil {
		return FailoverStats{}, err
	}
	if fp.Tables.N() != n {
		return FailoverStats{}, fmt.Errorf("netsim: tables over %d nodes, graph has %d", fp.Tables.N(), n)
	}
	events := append([]FaultEvent(nil), schedule...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].AfterMessage < events[j].AfterMessage })
	rng := newWorkloadRNG(wl)
	g := nw.r.Graph()
	// Epoch snapshot: built lazily on the first walk after a fault
	// event, then shared by every message until the next event.
	var eng *eval.WalkEngine
	engFresh, engLegacy := false, false
	refresh := func() {
		if engFresh {
			return
		}
		engFresh, engLegacy = true, false
		links := nw.LinkFaults()
		for _, e := range links {
			if !g.HasEdge(e.U, e.V) {
				// A cut outside g.Edges() is outside the engine's item
				// universe; this epoch walks through the oracle instead.
				engLegacy = true
				return
			}
		}
		if eng == nil {
			eng = eval.NewWalkEngine(fp.Tables, g)
		}
		eng.SetMixedFaults(nw.Faults().Elements(), links)
	}
	// walkSeg returns one walk segment's outcome, hops, failover hops
	// and final node, from the epoch snapshot when it covers the pair.
	walkSeg := func(at, dst int) (routing.Outcome, int, int, int) {
		if !engLegacy {
			if p := eng.PairID(at, dst); p >= 0 {
				return eng.Outcome(p), eng.WalkHops(p), eng.WalkFailovers(p), eng.WalkStuck(p)
			}
		}
		res := fp.Tables.WalkUnderFaults(at, dst, nw.faults)
		return res.Outcome, res.Hops, res.Failovers, res.Path[len(res.Path)-1]
	}
	var stats FailoverStats
	var latencies []int
	next := 0
	for i := 0; i < wl.Messages; i++ {
		for next < len(events) && events[next].AfterMessage <= i {
			events[next].apply(nw)
			engFresh = false
			next++
		}
		src, dst := drawPair(rng, n, wl)
		stats.Messages++
		if nw.faults.NodeFaulty(src) || nw.faults.NodeFaulty(dst) {
			stats.SkippedFault++
			continue
		}
		refresh()
		hops, segments := 0, 0
		at := src
		outcome := routing.Delivered
		for {
			out, segHops, segFails, stuck := walkSeg(at, dst)
			segments++
			hops += segHops
			stats.Failovers += segFails
			outcome = out
			if out == routing.Delivered {
				break
			}
			// Give up when out of retries or the walk made no progress
			// (restarting from the same node would repeat it verbatim).
			if segments > fp.Retries || stuck == at {
				break
			}
			at = stuck
			stats.Retries++
		}
		stats.TotalHops += hops
		if hops > stats.MaxHops {
			stats.MaxHops = hops
		}
		switch outcome {
		case routing.Delivered:
			stats.Delivered++
			t := hops*nw.params.hop() + segments*nw.params.endpoint()
			nw.now += t
			latencies = append(latencies, t)
		case routing.Blackhole:
			stats.Blackhole++
		default:
			stats.Loop++
		}
	}
	if len(latencies) > 0 {
		sort.Ints(latencies)
		stats.P50 = latencies[len(latencies)/2]
		stats.P99 = latencies[len(latencies)*99/100]
		stats.Max = latencies[len(latencies)-1]
	}
	return stats, nil
}
