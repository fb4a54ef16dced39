package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ftroute/internal/connectivity"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// A treeJob is one tree routing a construction asks for (Lemma 2):
// node-disjoint paths from x to distinct members of set.
type treeJob struct {
	x   int
	set []int
}

// A pathFinder finds the paths of tree routings on one graph. Each
// compiler worker gets its own, so an implementation need not be safe
// for concurrent use. The constructions use connectivity.Split.
type pathFinder interface {
	DisjointPathsToSet(x int, members []int, k int) ([][]int, error)
}

var newPathFinder = func(g *graph.Graph) pathFinder { return connectivity.NewSplit(g) }

// setPathFinder makes the constructions solve their tree routings with
// pathFinders from newFinder, and returns a function that restores the
// previous choice. Tests and benchmarks use it to build routings with a
// reference solver; it must not be called while a construction runs.
func setPathFinder(newFinder func(*graph.Graph) pathFinder) (restore func()) {
	old := newPathFinder
	newPathFinder = newFinder
	return func() { newPathFinder = old }
}

// A treeResult is a solved job: its paths and error, or the value the
// path finder panicked with (never nil after a panic since Go 1.21).
type treeResult struct {
	paths    [][]int
	err      error
	panicVal any
}

// solveTree runs one job and turns a panic into a result, so that
// compileTrees can raise it again on the calling goroutine.
func solveTree(pf pathFinder, j treeJob, k int) (res treeResult) {
	defer func() {
		if p := recover(); p != nil {
			res = treeResult{panicVal: p}
		}
	}()
	res.paths, res.err = pf.DisjointPathsToSet(j.x, j.set, k)
	return res
}

// compileTrees finds k paths for every job and passes each job's paths,
// or its error, to install strictly in job order. It stops at, and
// returns, the first error install returns; install must return one for
// a job whose path finder failed. It solves first and installs after,
// as routing.Reinforce does: connectivity.Workers(len(jobs)) workers,
// each with its own pathFinder, claim jobs from a shared counter and
// fill a result slice, and once they finish the caller installs in job
// order. A worker claims no job after some path finder has failed or
// panicked, so the solved jobs are a prefix that holds the first
// failing one, and the result and the reported error are those of
// solving and installing one job at a time. A panic in the path finder
// is raised again on the calling goroutine at that job's turn.
func compileTrees(g *graph.Graph, jobs []treeJob, k int, install func(treeJob, [][]int, error) error) error {
	results := make([]treeResult, len(jobs))
	workers := connectivity.Workers(len(jobs))
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pf := newPathFinder(g)
			// After a panic pf may be left half-updated; the flag
			// stops this worker before it claims another job.
			for !failed.Load() {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				results[i] = solveTree(pf, jobs[i], k)
				if results[i].err != nil || results[i].panicVal != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if results[i].panicVal != nil {
			panic(results[i].panicVal)
		}
		if err := install(j, results[i].paths, results[i].err); err != nil {
			return err
		}
	}
	return nil
}

// installPaths is the install step of the constructions: every path of
// a solved job goes to add.
func installPaths(add func(routing.Path) error) func(treeJob, [][]int, error) error {
	return func(j treeJob, paths [][]int, err error) error {
		if err != nil {
			return fmt.Errorf("%w: tree routing from %d: %v", ErrNotApplicable, j.x, err)
		}
		for _, p := range paths {
			if err := add(routing.Path(p)); err != nil {
				return err
			}
		}
		return nil
	}
}

// treeRouting is the recipe of the single-route constructions: a new
// routing on g, bidirectional or not, gets the t+1 paths of every tree
// routing in jobs, in job order, and then the direct edge routes.
func treeRouting(g *graph.Graph, jobs []treeJob, t int, bidirectional bool) (*routing.Routing, error) {
	newRouting := routing.New
	if bidirectional {
		newRouting = routing.NewBidirectional
	}
	r := newRouting(g)
	if err := compileTrees(g, jobs, t+1, installPaths(r.Set)); err != nil {
		return nil, err
	}
	if err := r.AddEdgeRoutes(); err != nil {
		return nil, err
	}
	return r, nil
}

// treesInto lists a tree routing into m from every node outside m.
func treesInto(g *graph.Graph, m []int) []treeJob {
	inM := graph.NewBitset(g.N())
	for _, v := range m {
		inM.Add(v)
	}
	var jobs []treeJob
	for x := 0; x < g.N(); x++ {
		if !inM.Has(x) {
			jobs = append(jobs, treeJob{x, m})
		}
	}
	return jobs
}
