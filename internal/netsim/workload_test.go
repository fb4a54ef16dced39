package netsim

import (
	"strings"
	"testing"

	"ftroute/internal/routing"
)

func TestRunWorkloadNoFaults(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	stats, err := nw.RunWorkload(Workload{Messages: 100, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 100 || stats.Unreachable != 0 || stats.SkippedFault != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.P50 <= 0 || stats.P99 < stats.P50 || stats.Max < stats.P99 {
		t.Fatalf("latency quantiles wrong: %+v", stats)
	}
	if stats.MaxRoutes < 1 || stats.TotalRoutes < stats.Delivered {
		t.Fatalf("route stats wrong: %+v", stats)
	}
}

func TestRunWorkloadDeterministic(t *testing.T) {
	r, _ := buildKernel(t)
	a, err := New(r, Params{}).RunWorkload(Workload{Messages: 60, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(r, Params{}).RunWorkload(Workload{Messages: 60, Seed: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same seed, different stats: %+v vs %+v", a, b)
	}
}

func TestRunWorkloadWithSchedule(t *testing.T) {
	r, tol := buildKernel(t)
	if tol < 2 {
		t.Skip("need tolerance >= 2")
	}
	nw := New(r, Params{})
	schedule := []FaultEvent{
		{AfterMessage: 10, Node: 3},
		{AfterMessage: 30, Node: 9},
		{AfterMessage: 60, Node: 3, Repair: true},
	}
	stats, err := nw.RunWorkload(Workload{Messages: 100, Seed: 2}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	// Within tolerance the network stays connected, so nothing is
	// unreachable; sends to/from the faulty nodes are skipped.
	if stats.Unreachable != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SkippedFault == 0 {
		t.Fatal("some sends should have hit faulty endpoints")
	}
	if stats.Delivered+stats.SkippedFault != 100 {
		t.Fatalf("accounting wrong: %+v", stats)
	}
	// Node 3 was repaired: it must be live at the end.
	if nw.Faults().Has(3) || !nw.Faults().Has(9) {
		t.Fatalf("final faults = %v", nw.Faults())
	}
}

func TestRunWorkloadHotspot(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	stats, err := nw.RunWorkload(Workload{Messages: 50, Seed: 3, HotspotFraction: 0.9, Hotspot: 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Delivered != 50 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestRunWorkloadErrors(t *testing.T) {
	r, _ := buildKernel(t)
	nw := New(r, Params{})
	if _, err := nw.RunWorkload(Workload{Messages: -1}, nil); err == nil {
		t.Fatal("negative messages should fail")
	}
}

// TestRunnersCheckNodeRanges runs both runners on CCC(3) (n = 24): a
// hotspot that is drawn, every node event and both endpoints of every
// link event must lie in 0..n-1, or the run returns an error before its
// first send instead of panicking, counting the bad sends as
// blackholes or recording a bogus cut. An in-range non-edge is a valid
// link event that cuts nothing.
func TestRunnersCheckNodeRanges(t *testing.T) {
	r := buildAllPairs(t)
	if r.Graph().HasEdge(0, 23) {
		t.Fatal("the non-edge row needs 0-23 to be a non-edge")
	}
	ft := routing.FailoverFromRouting(r)
	hot := func(v int) Workload { return Workload{Messages: 50, Seed: 1, HotspotFraction: 0.5, Hotspot: v} }
	plain := Workload{Messages: 50, Seed: 1}
	cases := []struct {
		name     string
		wl       Workload
		schedule []FaultEvent
		ok       bool
	}{
		{"hotspot past n", hot(27), nil, false},
		{"hotspot n", hot(24), nil, false},
		{"negative hotspot", hot(-2), nil, false},
		{"last node hotspot", hot(23), nil, true},
		{"undrawn hotspot", Workload{Messages: 50, Seed: 1, Hotspot: 27}, nil, true},
		{"node event n", plain, []FaultEvent{{AfterMessage: 2, Node: 24}}, false},
		{"negative node event", plain, []FaultEvent{{AfterMessage: 2, Node: -1}}, false},
		{"negative node repair", plain, []FaultEvent{{AfterMessage: 2, Node: -1, Repair: true}}, false},
		{"link event ignores node", plain, []FaultEvent{{AfterMessage: 2, Node: 99, Link: true, U: 0, V: 1}}, true},
		{"in-range node event", plain, []FaultEvent{{AfterMessage: 2, Node: 5}, {AfterMessage: 9, Node: 5, Repair: true}}, true},
		{"link event outside", plain, []FaultEvent{{AfterMessage: 1, Link: true, U: -1, V: 99}}, false},
		{"link event endpoint n", plain, []FaultEvent{{AfterMessage: 2, Link: true, U: 0, V: 24}}, false},
		{"negative link repair", plain, []FaultEvent{{AfterMessage: 2, Link: true, U: -1, V: 0, Repair: true}}, false},
		{"in-range non-edge link event", plain, []FaultEvent{{AfterMessage: 2, Link: true, U: 0, V: 23}}, true},
	}
	for _, c := range cases {
		_, err := New(r, Params{}).RunWorkload(c.wl, c.schedule)
		if (err == nil) != c.ok {
			t.Errorf("%s: RunWorkload error %v, want ok=%v", c.name, err, c.ok)
		}
		_, err = New(r, Params{}).RunFailoverWorkload(c.wl, c.schedule, FailoverParams{Tables: ft})
		if (err == nil) != c.ok {
			t.Errorf("%s: RunFailoverWorkload error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Delivered: 5, MaxRoutes: 2}
	if !strings.Contains(s.String(), "delivered=5") {
		t.Fatalf("String = %q", s.String())
	}
}

func TestRunWorkloadBeyondToleranceCountsUnreachable(t *testing.T) {
	// Edge routing on a cycle: two antipodal faults disconnect it, so
	// some sends become unreachable — and the run keeps going.
	r := cycleEdgeRouting(t, 8)
	nw := New(r, Params{})
	schedule := []FaultEvent{
		{AfterMessage: 0, Node: 0},
		{AfterMessage: 0, Node: 4},
	}
	stats, err := nw.RunWorkload(Workload{Messages: 80, Seed: 7}, schedule)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unreachable == 0 {
		t.Fatalf("expected unreachable sends: %+v", stats)
	}
	if stats.Delivered == 0 {
		t.Fatalf("same-side pairs should still deliver: %+v", stats)
	}
}
