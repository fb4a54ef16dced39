package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"ftroute/internal/connectivity"
	"ftroute/internal/connectivity/oracle"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// differentialGraphs are the families the construction layer is checked
// on against the rebuild-per-call oracle.
func differentialGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gs := map[string]*graph.Graph{"petersen": gen.Petersen()}
	add := func(name string, g *graph.Graph, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(name, err)
		}
		gs[name] = g
	}
	for d := 3; d <= 5; d++ {
		g, err := gen.CCC(d)
		add(fmt.Sprintf("ccc%d", d), g, err)
	}
	for d := 3; d <= 6; d++ {
		g, err := gen.Hypercube(d)
		add(fmt.Sprintf("q%d", d), g, err)
	}
	for _, n := range []int{9, 12, 45} {
		g, err := gen.Cycle(n)
		add(fmt.Sprintf("cycle%d", n), g, err)
	}
	for _, c := range []struct{ n, d int }{{20, 3}, {26, 3}, {18, 4}, {24, 4}} {
		for seed := int64(1); seed <= 2; seed++ {
			g, _, err := gen.RandomRegularConnected(c.n, c.d, seed, 50)
			add(fmt.Sprintf("rr%d-%d-s%d", c.n, c.d, seed), g, err)
		}
	}
	return gs
}

// differentialConstructions are the constructions built from tree
// routings, each reduced to (routing, error).
var differentialConstructions = []struct {
	name  string
	build func(*graph.Graph) (any, error)
}{
	{"kernel", func(g *graph.Graph) (any, error) { r, _, err := Kernel(g, Options{}); return r, err }},
	{"circular", func(g *graph.Graph) (any, error) { r, _, err := Circular(g, Options{}); return r, err }},
	{"circular-minimal", func(g *graph.Graph) (any, error) {
		r, _, err := Circular(g, Options{MinimalK: true})
		return r, err
	}},
	{"tricircular", func(g *graph.Graph) (any, error) { r, _, err := TriCircular(g, Options{}); return r, err }},
	{"tricircular-minimal", func(g *graph.Graph) (any, error) {
		r, _, err := TriCircular(g, Options{MinimalK: true})
		return r, err
	}},
	{"bipolar-uni", func(g *graph.Graph) (any, error) { r, _, err := BipolarUnidirectional(g, Options{}); return r, err }},
	{"bipolar-bi", func(g *graph.Graph) (any, error) { r, _, err := BipolarBidirectional(g, Options{}); return r, err }},
	{"multi-two-route", func(g *graph.Graph) (any, error) { m, _, err := TwoRouteMultirouting(g, Options{}); return m, err }},
	{"multi-kernel", func(g *graph.Graph) (any, error) { m, _, err := KernelMultirouting(g, Options{}); return m, err }},
}

// checkedFinder answers with a connectivity.Split and asserts that the
// oracle gives the same paths, in the same order, or the same error.
type checkedFinder struct {
	t     *testing.T
	g     *graph.Graph
	split *connectivity.Split
	calls *atomic.Int64
}

func (f checkedFinder) DisjointPathsToSet(x int, members []int, k int) ([][]int, error) {
	f.calls.Add(1)
	got, err := f.split.DisjointPathsToSet(x, members, k)
	want, werr := oracle.DisjointPathsToSet(f.g, x, members, k)
	if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		f.t.Errorf("x=%d set=%v k=%d: split %v (%v), oracle %v (%v)", x, members, k, got, err, want, werr)
	}
	return got, err
}

func equalRoutings(a, b any) bool {
	switch a := a.(type) {
	case *routing.Routing:
		b, ok := b.(*routing.Routing)
		return ok && (a == nil) == (b == nil) && (a == nil || a.Equal(b))
	case *routing.MultiRouting:
		b, ok := b.(*routing.MultiRouting)
		return ok && (a == nil) == (b == nil) && (a == nil || a.Equal(b))
	}
	return false
}

// TestConstructionsMatchOracle pins the construction layer to the
// rebuild-per-call oracle: every tree routing a construction asks for
// gets the oracle's paths in the oracle's order, and the whole routing
// (or the first error) equals the one built with oracle paths. Several
// workers run so the ordered install is exercised.
func TestConstructionsMatchOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var calls atomic.Int64
	built := 0
	for name, g := range differentialGraphs(t) {
		for _, c := range differentialConstructions {
			restore := setPathFinder(func(g *graph.Graph) pathFinder {
				return checkedFinder{t: t, g: g, split: connectivity.NewSplit(g), calls: &calls}
			})
			got, err := c.build(g)
			restore()
			restore = setPathFinder(func(g *graph.Graph) pathFinder { return oracle.Finder{G: g} })
			want, werr := c.build(g)
			restore()
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("%s on %s: error %v, oracle %v", c.name, name, err, werr)
			}
			if !equalRoutings(got, want) {
				t.Fatalf("%s on %s: routing differs from the oracle-built one", c.name, name)
			}
			if err == nil {
				built++
			}
		}
	}
	if built < 40 || calls.Load() < 5000 {
		t.Fatalf("only %d routings and %d tree routings compared", built, calls.Load())
	}
	t.Logf("%d routings, %d tree routings", built, calls.Load())
}

// stubFinder answers every job with one edge, except that the job from
// node fail fails and the job from node panicAt panics.
type stubFinder struct{ fail, panicAt int }

func (f stubFinder) DisjointPathsToSet(x int, members []int, k int) ([][]int, error) {
	switch x {
	case f.fail:
		return nil, fmt.Errorf("no paths from %d", x)
	case f.panicAt:
		panic(fmt.Sprintf("finder panicked at %d", x))
	}
	return [][]int{{x, members[0]}}, nil
}

// compileTreesRecover runs compileTrees and returns what it panicked
// with, if anything.
func compileTreesRecover(g *graph.Graph, jobs []treeJob, install func(treeJob, [][]int, error) error) (panicked any, err error) {
	defer func() { panicked = recover() }()
	return nil, compileTrees(g, jobs, 1, install)
}

// TestCompileTreesOrder checks the ordered-install rule on one and on
// many workers: install sees the jobs in order, and the compile stops at
// the first failing job, whether the path finder or the install step
// fails it. A path finder panic reaches the caller at that job's turn.
func TestCompileTreesOrder(t *testing.T) {
	g, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]treeJob, 1000)
	for i := range jobs {
		jobs[i] = treeJob{x: i, set: []int{i + 1}}
	}
	errInstall := errors.New("install failed")
	for _, procs := range []int{1, 4} {
		for _, tc := range []struct {
			name             string
			failFind         int // job whose path finder fails
			failInstall      int // job whose install fails
			panicAt          int // job whose path finder panics
			wantErr          string
			wantPanic        string
			wantInstalledLen int
		}{
			{"all", -1, -1, -1, "", "", 1000},
			{"finder", 613, -1, -1, "no paths from 613", "", 614},
			{"install", -1, 77, -1, "install failed", "", 78},
			{"first of both", 500, 400, -1, "install failed", "", 401},
			{"panic", -1, -1, 300, "", "finder panicked at 300", 300},
			{"error before panic", 250, -1, 300, "no paths from 250", "", 251},
			{"panic before error", 350, -1, 300, "", "finder panicked at 300", 300},
		} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				defer setPathFinder(func(*graph.Graph) pathFinder {
					return stubFinder{fail: tc.failFind, panicAt: tc.panicAt}
				})()
				var installed []int
				panicked, err := compileTreesRecover(g, jobs, func(j treeJob, paths [][]int, err error) error {
					installed = append(installed, j.x)
					if err != nil {
						return err
					}
					if j.x == tc.failInstall {
						return errInstall
					}
					if want := [][]int{{j.x, j.x + 1}}; !reflect.DeepEqual(paths, want) {
						t.Errorf("job %d got paths %v", j.x, paths)
					}
					return nil
				})
				if got := fmt.Sprint(err); (err != nil || tc.wantErr != "") && got != tc.wantErr {
					t.Fatalf("error %q, want %q", got, tc.wantErr)
				}
				if got := fmt.Sprint(panicked); (panicked != nil || tc.wantPanic != "") && got != tc.wantPanic {
					t.Fatalf("panic %q, want %q", got, tc.wantPanic)
				}
				if len(installed) != tc.wantInstalledLen {
					t.Fatalf("installed %d jobs, want %d", len(installed), tc.wantInstalledLen)
				}
				for i, x := range installed {
					if x != i {
						t.Fatalf("install %d was job %d", i, x)
					}
				}
			})
		}
	}
}
