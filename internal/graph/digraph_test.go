package graph

import "testing"

func TestDigraphBasics(t *testing.T) {
	d := NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(0, 1) // duplicate ignored
	if d.Arcs() != 2 {
		t.Fatalf("arcs = %d", d.Arcs())
	}
	if !d.HasArc(0, 1) || d.HasArc(1, 0) {
		t.Fatal("arc direction not respected")
	}
	out := d.OutNeighbors(0)
	if len(out) != 1 || out[0] != 1 {
		t.Fatalf("out(0) = %v", out)
	}
}

func TestDigraphBadArcPanics(t *testing.T) {
	d := NewDigraph(2)
	defer func() {
		if recover() == nil {
			t.Fatal("self arc should panic")
		}
	}()
	d.AddArc(1, 1)
}

func TestDigraphBFSAndDist(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(2, 3)
	dist := d.BFSDistances(0)
	for i := 0; i < 4; i++ {
		if dist[i] != i {
			t.Fatalf("dist = %v", dist)
		}
	}
	if d.Dist(3, 0) != Unreachable {
		t.Fatal("reverse direction should be unreachable")
	}
	if d.Dist(2, 2) != 0 {
		t.Fatal("self distance should be 0")
	}
}

func TestDigraphDisable(t *testing.T) {
	d := NewDigraph(4)
	d.AddArc(0, 1)
	d.AddArc(1, 2)
	d.AddArc(0, 3)
	d.AddArc(3, 2)
	d.Disable(1)
	if !d.Disabled(1) || d.Disabled(0) {
		t.Fatal("disabled bookkeeping wrong")
	}
	if d.EnabledCount() != 3 {
		t.Fatalf("enabled = %d", d.EnabledCount())
	}
	if got := d.Dist(0, 2); got != 2 {
		t.Fatalf("dist around disabled node = %d, want 2 (via 3)", got)
	}
	if got := d.Dist(0, 1); got != Unreachable {
		t.Fatal("disabled node should be unreachable")
	}
}

func TestDigraphDiameter(t *testing.T) {
	// Directed cycle on 4 nodes: diameter 3.
	d := NewDigraph(4)
	for i := 0; i < 4; i++ {
		d.AddArc(i, (i+1)%4)
	}
	diam, ok := d.Diameter()
	if !ok || diam != 3 {
		t.Fatalf("diameter = (%d,%v)", diam, ok)
	}
}

func TestDigraphDiameterDisconnected(t *testing.T) {
	d := NewDigraph(2)
	d.AddArc(0, 1)
	if _, ok := d.Diameter(); ok {
		t.Fatal("one-way pair should have infinite diameter")
	}
}

func TestDigraphDiameterAfterDisable(t *testing.T) {
	// 0->1->0 plus isolated-but-disabled node 2: diameter over enabled
	// nodes should be 1.
	d := NewDigraph(3)
	d.AddArc(0, 1)
	d.AddArc(1, 0)
	d.Disable(2)
	diam, ok := d.Diameter()
	if !ok || diam != 1 {
		t.Fatalf("diameter = (%d,%v)", diam, ok)
	}
}

func TestDigraphSingleEnabledNode(t *testing.T) {
	d := NewDigraph(2)
	d.Disable(1)
	diam, ok := d.Diameter()
	if !ok || diam != 0 {
		t.Fatalf("single enabled node diameter = (%d,%v)", diam, ok)
	}
}

func TestDigraphString(t *testing.T) {
	d := NewDigraph(3)
	d.AddArc(0, 1)
	d.Disable(2)
	if got := d.String(); got != "Digraph(n=3, arcs=1, disabled=1)" {
		t.Fatalf("String = %q", got)
	}
}
