package eval

import (
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file holds the plain engine walkers that MaxDiameter,
// MaxDiameterParallel, MaxDiameterMixed and MaxDiameterMixedParallel
// ran before their exhaustive path became the branch-and-bound
// executor of bounded.go: one full Diameter per fault set (or per orbit
// representative), serial or with work stealing over first-item
// prefixes, merged in enumeration order. They are the oracle the public
// searches are pinned to (TestBoundedMatchesPlain,
// TestBoundedMatchesPlainMixed, FuzzBoundedEquivalence) and the
// denominators of the plain-enumeration benchmark gates
// (search_bench_test.go).

// plainMaxDiameter is the plain exhaustive node-fault search on workers
// engines, over one canonical representative per orbit when pruned and
// the routing is equivariant.
func plainMaxDiameter(s *routing.Routing, f int, pruned bool, workers int) Result {
	if f < 0 {
		f = 0
	}
	if workers == 1 || f == 0 {
		workers = 1
	}
	if pruned {
		if plan := nodeReps(s, f); plan != nil {
			eng := engineFor(s)
			res := Result{WorstFaults: graph.NewBitset(eng.N())}
			if workers > 1 {
				eng.evalPrunedParallel(plan, workers, &res)
			} else {
				eng.evalPruned(plan, &res)
			}
			return res
		}
	}
	eng := engineFor(s)
	if workers > 1 {
		return eng.exhaustiveParallel(f, workers)
	}
	res := Result{WorstFaults: graph.NewBitset(eng.N())}
	eng.fold(&res) // empty set
	eng.descend(0, f, &res)
	return res
}

// plainMaxDiameterMixed is plainMaxDiameter over the mixed node+edge
// universe.
func plainMaxDiameterMixed(s *routing.Routing, f int, pruned bool, workers int) MixedResult {
	if f < 0 {
		f = 0
	}
	if workers == 1 || f == 0 {
		workers = 1
	}
	edges := s.Graph().Edges()
	if pruned {
		if plan := mixedReps(s, f); plan != nil {
			eng := engineFor(s)
			res := MixedResult{WorstNodeFaults: graph.NewBitset(eng.N())}
			if workers > 1 {
				eng.evalPrunedMixedParallel(plan, edges, workers, &res)
			} else {
				eng.evalPrunedMixed(plan, edges, &res)
			}
			return res
		}
	}
	eng := engineFor(s)
	if workers > 1 {
		return eng.exhaustiveMixedParallel(f, workers, edges)
	}
	res := MixedResult{WorstNodeFaults: graph.NewBitset(eng.N())}
	eng.foldMixed(&res) // empty set
	eng.descendMixed(0, f, edges, &res)
	return res
}

// descend walks the exhaustive enumeration subtree of fault sets that
// extend the engine's current set with nodes from start..n-1, up to
// left more faults, evaluating every set in the same preorder as the
// legacy recursion. The engine is restored on return.
func (e *Engine) descend(start, left int, res *Result) {
	if left == 0 {
		return
	}
	for v := start; v < e.n; v++ {
		e.AddFault(v)
		e.fold(res)
		e.descend(v+1, left-1, res)
		e.RemoveFault(v)
	}
}

// descendMixed walks the exhaustive mixed enumeration subtree extending
// the engine's current set with items from start.., up to left more
// faults, in the same preorder as the legacy recursion. Item k < n is
// node k; item k >= n is edges[k-n]. The engine is restored on return.
func (e *Engine) descendMixed(start, left int, edges [][2]int, res *MixedResult) {
	if left == 0 {
		return
	}
	for v := start; v < e.n+len(edges); v++ {
		e.toggleItem(v, edges, true)
		e.foldMixed(res)
		e.descendMixed(v+1, left-1, edges, res)
		e.toggleItem(v, edges, false)
	}
}

// exhaustiveParallel enumerates all fault sets of size 0..f. Work unit
// v is the subtree of sets whose smallest element is v; workers steal
// units from a shared counter, each on its own engine clone, and the
// per-unit results are merged in enumeration order.
func (e *Engine) exhaustiveParallel(f, workers int) Result {
	n := e.n
	merged := Result{WorstFaults: graph.NewBitset(n)}
	e.fold(&merged) // empty set
	if f <= 0 || n == 0 {
		return merged
	}
	if workers > n {
		workers = n
	}
	per := make([]Result, n)
	var nextUnit atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Clone()
			for {
				v := int(nextUnit.Add(1)) - 1
				if v >= n {
					return
				}
				res := Result{WorstFaults: graph.NewBitset(n)}
				c.AddFault(v)
				c.fold(&res)
				c.descend(v+1, f-1, &res)
				c.RemoveFault(v)
				per[v] = res
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrdered(&merged, r)
	}
	return merged
}

// exhaustiveMixedParallel enumerates all mixed fault sets of size 0..f.
// Work unit v is the subtree of sets whose smallest item is v (nodes
// first, then edges); workers steal units from a shared counter, each
// on its own engine clone.
func (e *Engine) exhaustiveMixedParallel(f, workers int, edges [][2]int) MixedResult {
	n := e.n
	items := n + len(edges)
	merged := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	e.foldMixed(&merged) // empty set
	if f <= 0 || items == 0 {
		return merged
	}
	if workers > items {
		workers = items
	}
	per := make([]MixedResult, items)
	var nextUnit atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Clone()
			for {
				v := int(nextUnit.Add(1)) - 1
				if v >= items {
					return
				}
				res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
				c.toggleItem(v, edges, true)
				c.foldMixed(&res)
				c.descendMixed(v+1, f-1, edges, &res)
				c.toggleItem(v, edges, false)
				per[v] = res
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixed(&merged, r)
	}
	return merged
}

// evalPruned folds the empty set and every representative of plan into
// res, reconstructing the plain enumeration's Evaluated count from the
// orbit sizes. The reported worst scores and flags match the plain
// search exactly; the witness is the canonical member of a worst orbit.
// The engine must start fault-free and is restored on return.
func (e *Engine) evalPruned(plan *prunedReps, res *Result) {
	e.fold(res) // empty set
	toggle := func(v int, add bool) {
		if add {
			e.AddFault(v)
		} else {
			e.RemoveFault(v)
		}
	}
	var cur []int
	for i, set := range plan.sets {
		cur = applyDiff(cur, set, toggle)
		e.foldW(res, plan.mults[i])
	}
	for _, v := range cur {
		e.RemoveFault(v)
	}
}

// evalPrunedMixed is evalPruned over the mixed item universe.
func (e *Engine) evalPrunedMixed(plan *prunedReps, edges [][2]int, res *MixedResult) {
	e.foldMixed(res) // empty set
	toggle := func(v int, add bool) { e.toggleItem(v, edges, add) }
	var cur []int
	for i, set := range plan.sets {
		cur = applyDiff(cur, set, toggle)
		e.foldMixedW(res, plan.mults[i])
	}
	for _, v := range cur {
		e.toggleItem(v, edges, false)
	}
}

// evalPrunedParallel is evalPruned with the representative list split
// into contiguous chunks stolen by per-worker clones; each chunk is
// replayed from the empty set with applyDiff and sub-results merge in
// plan order, so the outcome matches the serial pruned walk exactly.
func (e *Engine) evalPrunedParallel(plan *prunedReps, workers int, res *Result) {
	e.fold(res) // empty set
	reps := len(plan.sets)
	if reps == 0 {
		return
	}
	if workers > reps {
		workers = reps
	}
	chunk := planChunk(reps, workers)
	nchunks := (reps + chunk - 1) / chunk
	per := make([]Result, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Engine
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				if c == nil {
					c = e.Clone()
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > reps {
					hi = reps
				}
				toggle := func(v int, add bool) {
					if add {
						c.AddFault(v)
					} else {
						c.RemoveFault(v)
					}
				}
				sub := Result{WorstFaults: graph.NewBitset(e.n)}
				var cur []int
				for i := lo; i < hi; i++ {
					cur = applyDiff(cur, plan.sets[i], toggle)
					c.foldW(&sub, plan.mults[i])
				}
				for _, v := range cur {
					c.RemoveFault(v)
				}
				per[ci] = sub
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrdered(res, r)
	}
}

// evalPrunedMixedParallel is evalPrunedParallel over the mixed universe.
func (e *Engine) evalPrunedMixedParallel(plan *prunedReps, edges [][2]int, workers int, res *MixedResult) {
	e.foldMixed(res) // empty set
	reps := len(plan.sets)
	if reps == 0 {
		return
	}
	if workers > reps {
		workers = reps
	}
	chunk := planChunk(reps, workers)
	nchunks := (reps + chunk - 1) / chunk
	per := make([]MixedResult, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *Engine
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				if c == nil {
					c = e.Clone()
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > reps {
					hi = reps
				}
				toggle := func(v int, add bool) { c.toggleItem(v, edges, add) }
				sub := MixedResult{WorstNodeFaults: graph.NewBitset(e.n)}
				var cur []int
				for i := lo; i < hi; i++ {
					cur = applyDiff(cur, plan.sets[i], toggle)
					c.foldMixedW(&sub, plan.mults[i])
				}
				for _, v := range cur {
					c.toggleItem(v, edges, false)
				}
				per[ci] = sub
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixed(res, r)
	}
}

// foldW is fold counting the current set for mult evaluations — the
// orbit-pruned searches fold one canonical representative per orbit and
// reconstruct the plain enumeration's Evaluated count from orbit sizes.
func (e *Engine) foldW(res *Result, mult int) {
	res.Evaluated += mult
	if e.aliveCount <= 1 {
		return
	}
	diam, ok := e.Diameter()
	if !ok {
		if !res.Disconnected {
			res.Disconnected = true
			res.WorstFaults = e.faults.Clone()
		}
		return
	}
	if !res.Disconnected && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstFaults = e.faults.Clone()
	}
}

// foldMixedW is foldMixed counting the current set for mult
// evaluations, the mixed counterpart of foldW.
func (e *Engine) foldMixedW(res *MixedResult, mult int) {
	res.Evaluated += mult
	if e.aliveCount <= 1 {
		return
	}
	diam, ok := e.Diameter()
	if !ok {
		if !res.Disconnected {
			res.Disconnected = true
			res.WorstNodeFaults = e.faults.Clone()
			res.WorstEdgeFaults = e.EdgeFaults()
		}
		return
	}
	if !res.Disconnected && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstNodeFaults = e.faults.Clone()
		res.WorstEdgeFaults = e.EdgeFaults()
	}
}
