package netsim

import (
	"errors"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// graphpkg builds the square-with-chord graph used by the retry test.
func graphpkg() *graph.Graph {
	g := graph.New(4)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1, 3}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

func TestLinkFaultsAffectSends(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	nw := New(r, Params{})
	if _, err := nw.Send(0, 3); err != nil {
		t.Fatal(err)
	}
	// Isolate node 3 by cutting both of its links: no route sequence can
	// end there, though node 3 itself is healthy.
	nw.FailLink(2, 3)
	nw.FailLink(3, 4)
	if _, err := nw.Send(0, 3); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send over cut links: %v", err)
	}
	// Other pairs still deliver, and repair restores everything.
	if _, err := nw.Send(0, 2); err != nil {
		t.Fatal(err)
	}
	nw.RepairLink(2, 3)
	nw.RepairLink(3, 4)
	if _, err := nw.Send(0, 3); err != nil {
		t.Fatalf("send after repair: %v", err)
	}
	if got := len(nw.LinkFaults()); got != 0 {
		t.Fatalf("%d link faults after repair", got)
	}
}

func TestWorkloadCountsLinkUnreachablesSeparately(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	nw := New(r, Params{})
	schedule := []FaultEvent{
		{AfterMessage: 0, Link: true, U: 2, V: 3},
		{AfterMessage: 0, Link: true, U: 3, V: 4},
	}
	stats, err := nw.RunWorkload(Workload{Messages: 200, Seed: 9}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	// Node 3 is stranded purely by link cuts: every unreachable must be
	// attributed to the links, none to node faults.
	if stats.UnreachableLink == 0 {
		t.Fatalf("no link-attributed unreachables: %+v", stats)
	}
	if stats.Unreachable != 0 {
		t.Fatalf("node-attributed unreachables without node faults: %+v", stats)
	}
	if stats.Delivered+stats.UnreachableLink != 200 {
		t.Fatalf("outcomes do not partition messages: %+v", stats)
	}
}

// buildAllPairs returns an all-pairs shortest-path routing over CCC(3).
// Failover tables forward per (src, dst) pair and cannot stitch route
// sequences the way Send does, so workload tests need a routing that
// covers every ordered pair (kernel routings are deliberately partial).
func buildAllPairs(t *testing.T) *routing.Routing {
	t.Helper()
	g, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunFailoverWorkloadDeliversEverythingWithoutFaults(t *testing.T) {
	r := buildAllPairs(t)
	ft := routing.FailoverFromRouting(r)
	nw := New(r, Params{})
	stats, err := nw.RunFailoverWorkload(Workload{Messages: 100, Seed: 1}, nil, FailoverParams{Tables: ft})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 100 || stats.Blackhole != 0 || stats.Loop != 0 || stats.Failovers != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.P50 <= 0 || stats.Max < stats.P99 || stats.P99 < stats.P50 {
		t.Fatalf("latency quantiles wrong: %+v", stats)
	}
	if nw.Now() == 0 {
		t.Fatal("clock did not advance")
	}
}

func TestRunFailoverWorkloadDeterministic(t *testing.T) {
	r := buildAllPairs(t)
	ft := routing.FailoverFromRouting(r)
	schedule := []FaultEvent{
		{AfterMessage: 10, Link: true, U: 0, V: 1},
		{AfterMessage: 40, Link: true, U: 0, V: 1, Repair: true},
		{AfterMessage: 50, Node: 2},
	}
	run := func() FailoverStats {
		s, err := New(r, Params{}).RunFailoverWorkload(Workload{Messages: 80, Seed: 5}, schedule, FailoverParams{Tables: ft, Retries: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
	if a.Messages != 80 || a.Delivered+a.Blackhole+a.Loop+a.SkippedFault != 80 {
		t.Fatalf("outcomes do not partition messages: %+v", a)
	}
}

func TestRunFailoverWorkloadRetriesRecoverMessages(t *testing.T) {
	// Square with a chord: 0-1, 1-2, 2-3, 3-0, 1-3. The route for
	// (0,2) goes 0,1,2 but node 1's own route to 2 detours 1,3,2 —
	// with link {1,2} cut, a 0->2 walk blackholes at 1, and a retry
	// re-entering as pair (1,2) delivers around the chord. (Plain
	// shortest-path tables on a cycle can never show this: the retry
	// route re-crosses the same cut.)
	g := graphpkg()
	r := routing.New(g)
	for _, p := range []routing.Path{
		{0, 1}, {1, 0},
		{0, 1, 2}, {2, 3, 0},
		{0, 3}, {3, 0},
		{1, 3, 2}, {2, 1},
		{1, 3}, {3, 1},
		{2, 3}, {3, 2},
	} {
		if err := r.Set(p); err != nil {
			t.Fatal(err)
		}
	}
	ft := routing.FailoverFromRouting(r)
	schedule := []FaultEvent{{AfterMessage: 0, Link: true, U: 1, V: 2}}
	wl := Workload{Messages: 120, Seed: 3, HotspotFraction: 0.9, Hotspot: 2}
	noRetry, err := New(r, Params{}).RunFailoverWorkload(wl, schedule, FailoverParams{Tables: ft})
	if err != nil {
		t.Fatal(err)
	}
	withRetry, err := New(r, Params{}).RunFailoverWorkload(wl, schedule, FailoverParams{Tables: ft, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	if noRetry.Blackhole == 0 {
		t.Fatalf("expected blackholes without retries: %+v", noRetry)
	}
	if withRetry.Delivered <= noRetry.Delivered {
		t.Fatalf("retries did not recover messages: %+v vs %+v", withRetry, noRetry)
	}
	if withRetry.Retries == 0 {
		t.Fatalf("no retries recorded: %+v", withRetry)
	}
}

func TestRunFailoverWorkloadErrors(t *testing.T) {
	r, _ := buildKernel(t)
	ft := routing.FailoverFromRouting(r)
	nw := New(r, Params{})
	if _, err := nw.RunFailoverWorkload(Workload{Messages: 1}, nil, FailoverParams{}); err == nil {
		t.Fatal("nil tables accepted")
	}
	if _, err := nw.RunFailoverWorkload(Workload{Messages: -1}, nil, FailoverParams{Tables: ft}); err == nil {
		t.Fatal("negative message count accepted")
	}
	g, err := gen.Cycle(4)
	if err != nil {
		t.Fatal(err)
	}
	small, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.RunFailoverWorkload(Workload{Messages: 1}, nil, FailoverParams{Tables: routing.FailoverFromRouting(small)}); err == nil {
		t.Fatal("mismatched table size accepted")
	}
}

func TestBroadcastSeesLinkFaults(t *testing.T) {
	g, err := gen.Cycle(6)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	nw := New(r, Params{})
	nw.FailLink(2, 3)
	nw.FailLink(3, 4)
	res, err := nw.Broadcast(0, g.N())
	if err != nil {
		t.Fatal(err)
	}
	if res.AllReached {
		t.Fatal("broadcast crossed cut links")
	}
	for _, v := range res.Reached {
		if v == 3 {
			t.Fatal("isolated node reached")
		}
	}
}

// TestRunFailoverWorkloadReinforcedStats pins a run of reinforced
// CCC(3) tables under link and node events to its recorded stats, then
// replays the schedule behind a cut of a link that is not a graph edge:
// no table hop crosses such a link, so the stats must not move.
func TestRunFailoverWorkloadReinforcedStats(t *testing.T) {
	r := buildAllPairs(t)
	g := r.Graph()
	mr, err := routing.Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	ft := routing.CompileFailover(mr)
	schedule := []FaultEvent{
		{AfterMessage: 5, Link: true, U: 0, V: 1},
		{AfterMessage: 20, Node: 7},
		{AfterMessage: 60, Link: true, U: 0, V: 1, Repair: true},
		{AfterMessage: 80, Node: 7, Repair: true},
		{AfterMessage: 90, Link: true, U: 2, V: 10},
	}
	if g.HasEdge(2, 10) || g.HasEdge(0, 4) {
		t.Fatal("links {2,10} and {0,4} must not be graph edges")
	}
	wl := Workload{Messages: 150, Seed: 11, HotspotFraction: 0.5, Hotspot: 3}
	fp := FailoverParams{Tables: ft, Retries: 2}
	want := FailoverStats{Messages: 150, Delivered: 149, SkippedFault: 1, Retries: 5, Failovers: 10,
		TotalHops: 500, MaxHops: 10, P50: 13, P99: 29, Max: 30}
	for _, sched := range [][]FaultEvent{schedule, append([]FaultEvent{{Link: true, U: 0, V: 4}}, schedule...)} {
		got, err := New(r, Params{}).RunFailoverWorkload(wl, sched, fp)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("schedule %v: stats %+v, want %+v", sched, got, want)
		}
	}
}

// TestRunFailoverWorkloadPartialTables pins retries toward a pair the
// tables do not cover: the chord-square routing minus the (1,2) route
// makes a 0->2 walk blackhole at 1 under the {1,2} cut, and the retry
// from 1 toward 2 blackholes where it starts. The run is pinned to its
// recorded stats, with and without a cut of the non-edge {0,2}.
func TestRunFailoverWorkloadPartialTables(t *testing.T) {
	g := graphpkg()
	r := routing.New(g)
	for _, p := range []routing.Path{
		{0, 1}, {1, 0},
		{0, 1, 2}, {2, 3, 0},
		{0, 3}, {3, 0},
		{2, 1},
		{1, 3}, {3, 1},
		{2, 3}, {3, 2},
	} {
		if err := r.Set(p); err != nil {
			t.Fatal(err)
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("link {0,2} must not be a graph edge")
	}
	ft := routing.FailoverFromRouting(r)
	schedule := []FaultEvent{{AfterMessage: 0, Link: true, U: 1, V: 2}}
	wl := Workload{Messages: 120, Seed: 3, HotspotFraction: 0.9, Hotspot: 2}
	fp := FailoverParams{Tables: ft, Retries: 2}
	want := FailoverStats{Messages: 120, Delivered: 63, Blackhole: 57, Retries: 27,
		TotalHops: 90, MaxHops: 1, P50: 11, P99: 11, Max: 11}
	for _, sched := range [][]FaultEvent{schedule, append([]FaultEvent{{Link: true, U: 0, V: 2}}, schedule...)} {
		got, err := New(r, Params{}).RunFailoverWorkload(wl, sched, fp)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("schedule %v: stats %+v, want %+v", sched, got, want)
		}
	}
}
