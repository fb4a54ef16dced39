package core

import (
	"fmt"
	"runtime"
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

const (
	// jobsPerWorker is the least number of jobs worth a worker of its
	// own; shorter job lists run on one worker.
	jobsPerWorker = 16
	// resultsPerWorker bounds how far the workers may run ahead of the
	// in-order install, so buffered paths stay O(workers).
	resultsPerWorker = 16
)

// A treeResult is a solved job: its paths and error, or the value the
// path finder panicked with (never nil after a panic since Go 1.21).
type treeResult struct {
	paths    [][]int
	err      error
	panicVal any
}

// solveTree runs one job and turns a panic into a result, so that the
// installer can raise it again on the calling goroutine.
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
// returns, the first error install returns. The jobs run on up to
// GOMAXPROCS workers, each with its own pathFinder; because the install
// order is the job order, the result and the reported error are those of
// solving and installing one job at a time. A panic in the path finder
// is raised again on the calling goroutine at that job's turn.
func compileTrees(g *graph.Graph, jobs []treeJob, k int, install func(treeJob, [][]int, error) error) error {
	workers := max(1, min(runtime.GOMAXPROCS(0), len(jobs)/jobsPerWorker))
	// A worker takes a token before it claims the next job, and the
	// installer returns the token once that job is installed. So the
	// claimed but uninstalled jobs are consecutive and fewer than window,
	// and job i owns slot i%window until it is installed.
	window := resultsPerWorker * workers
	slots := make([]chan treeResult, window)
	tokens := make(chan struct{}, window)
	for i := range slots {
		slots[i] = make(chan treeResult, 1)
		tokens <- struct{}{}
	}
	done := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pf := newPathFinder(g)
			for {
				select {
				case <-done:
					return
				case <-tokens:
				}
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				res := solveTree(pf, jobs[i], k)
				slots[i%window] <- res
				if res.panicVal != nil {
					// pf may be left half-updated. Every job before i
					// was claimed already, so the installer stops at i
					// or earlier without waiting for this worker.
					return
				}
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()
	for i, j := range jobs {
		res := <-slots[i%window]
		if res.panicVal != nil {
			panic(res.panicVal)
		}
		if err := install(j, res.paths, res.err); err != nil {
			return err
		}
		tokens <- struct{}{}
	}
	return nil
}

// setTrees is the install step of the single-route constructions: every
// path of a job becomes a route of r.
func setTrees(r *routing.Routing) func(treeJob, [][]int, error) error {
	return func(j treeJob, paths [][]int, err error) error {
		if err != nil {
			return fmt.Errorf("%w: tree routing from %d: %v", ErrNotApplicable, j.x, err)
		}
		for _, p := range paths {
			if err := r.Set(routing.Path(p)); err != nil {
				return err
			}
		}
		return nil
	}
}
