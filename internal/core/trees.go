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

// treeJobs lists the tree routings of one construction in install
// order: job i asks for k node-disjoint paths (Lemma 2) from src to k
// distinct members of sets[set]. Constructions name each target set
// once, so the flow network of a set is built once per worker and
// reused by every job into that set.
type treeJobs struct {
	g    *graph.Graph
	k    int
	sets [][]int
	jobs []treeJob
}

type treeJob struct{ src, set int }

func newTreeJobs(g *graph.Graph, k int) *treeJobs {
	return &treeJobs{g: g, k: k}
}

// addSet registers a target set and returns its index for add.
func (tj *treeJobs) addSet(m []int) int {
	tj.sets = append(tj.sets, m)
	return len(tj.sets) - 1
}

// add appends a tree routing from src into target set set.
func (tj *treeJobs) add(src, set int) {
	tj.jobs = append(tj.jobs, treeJob{src, set})
}

// treeError reports a job whose paths do not exist.
func treeError(src int, err error) error {
	return fmt.Errorf("%w: tree routing from %d: %v", ErrNotApplicable, src, err)
}

// runTrees computes the paths of every job and hands them to install in
// job order, stopping at the first error in that order: a job's own
// Lemma 2 failure (wrapped by treeError) or its install error. The
// byte-identity tests swap in the serial fresh-network reference.
var runTrees = (*treeJobs).solve

// solve is the production runTrees: the jobs run on GOMAXPROCS workers,
// each with its own lazily built connectivity.ToSet per target set. Paths depend only
// on (src, set, k), and installs happen in job order afterwards, so the
// routing and the error are the same at every worker count.
func (tj *treeJobs) solve(install func(paths [][]int) error) error {
	n := len(tj.jobs)
	paths := make([][][]int, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets := make([]*connectivity.ToSet, len(tj.sets))
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				j := tj.jobs[i]
				if nets[j.set] == nil {
					if nets[j.set], errs[i] = connectivity.NewToSet(tj.g, tj.sets[j.set]); errs[i] != nil {
						continue
					}
				}
				paths[i], errs[i] = nets[j.set].Paths(j.src, tj.k)
			}
		}()
	}
	wg.Wait()
	for i, j := range tj.jobs {
		if errs[i] != nil {
			return treeError(j.src, errs[i])
		}
		if err := install(paths[i]); err != nil {
			return err
		}
	}
	return nil
}

// install runs the jobs and passes every path to add, in job order.
func (tj *treeJobs) install(add func(routing.Path) error) error {
	return runTrees(tj, func(paths [][]int) error {
		for _, p := range paths {
			if err := add(routing.Path(p)); err != nil {
				return err
			}
		}
		return nil
	})
}
