package eval

import (
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
	"ftroute/internal/sym"
)

// This file implements Config.Pruned: orbit-pruned exhaustive
// enumeration. When a routing (or table set) is strictly equivariant
// under a subgroup H of the graph's automorphism group, every search
// objective in this package — surviving diameter, disconnection, walk
// outcome counts — is constant on each H-orbit of fault sets, so the
// exhaustive searches need only evaluate one canonical representative
// per orbit and weight it by the orbit size (see docs/symmetry.md for
// the soundness argument). The plan builders below compute Aut(G) with
// the refinement search of internal/sym, keep exactly the elements that
// respect the evaluated object (respecting elements form a subgroup),
// and materialize the canonical representatives with multiplicities;
// they return nil whenever pruning cannot help — no route enumeration,
// a trivial or over-cap group, nothing respecting — and every caller
// then falls back to the plain enumeration.

// prunedElementCap bounds the group orders pruning will expand: beyond
// this many elements the respect checks and per-set canonicity tests
// cost more than the enumeration they save, so the searches fall back.
const prunedElementCap = 1 << 14

// prunedReps is a compiled orbit-pruned enumeration plan: the canonical
// representative fault sets (sorted item lists in lexicographic
// preorder) and their orbit sizes. The empty set is not included — the
// searches always fold it separately, exactly like the plain paths.
type prunedReps struct {
	sets  [][]int
	mults []int
}

// respectingElems computes the full element list of Aut(g) and filters
// it to the elements keep accepts. It returns nil when pruning cannot
// help: trivial group, more than prunedElementCap elements, or no
// nontrivial respecting element.
//
// Fast path: the respecting elements form a subgroup (equivariance is
// closed under composition and inverse), so when every generator
// respects the evaluated object the whole generated group does — one
// keep check per generator replaces one full route scan per group
// element, removing the fixed cost that used to push small universes
// onto the plain path.
func respectingElems(g *graph.Graph, keep func(p []int) bool) [][]int {
	gr := sym.Automorphisms(g)
	elems := sym.Elements(gr.N, gr.Gens, prunedElementCap)
	if len(elems) <= 1 {
		return nil
	}
	gensOK := true
	for _, p := range gr.Gens {
		if !keep(p) {
			gensOK = false
			break
		}
	}
	if gensOK {
		return elems
	}
	elems = sym.Respecting(elems, keep)
	if len(elems) <= 1 {
		return nil
	}
	return elems
}

// materialize runs the enumerator over sizes 1..f, copying each
// canonical set with its orbit size.
func materialize(en *sym.Enumerator, f int) *prunedReps {
	plan := &prunedReps{}
	if f > 0 {
		en.Each(f, func(set []int, mult int) {
			plan.sets = append(plan.sets, append([]int(nil), set...))
			plan.mults = append(plan.mults, mult)
		})
	}
	return plan
}

// nodeReps builds the node-fault orbit plan for s under budget f, or
// nil when pruning is unavailable (s cannot enumerate its routes, the
// usable group is trivial or too large, or the routing is not
// equivariant under it).
func nodeReps(s Survivor, f int) *prunedReps {
	rs, ok := s.(RouteSource)
	if !ok {
		return nil
	}
	g := s.Graph()
	check := sym.NewRoutingCheck(rs)
	elems := respectingElems(g, check.Respects)
	if elems == nil {
		return nil
	}
	return materialize(sym.NewEnumerator(g.N(), elems), f)
}

// mixedReps is nodeReps over the n+m mixed item universe: each
// respecting node permutation is lifted to nodes-then-edges item form
// (every automorphism lifts; a failed lift aborts to the fallback).
func mixedReps(s Survivor, f int) *prunedReps {
	rs, ok := s.(RouteSource)
	if !ok {
		return nil
	}
	g := s.Graph()
	check := sym.NewRoutingCheck(rs)
	elems := respectingElems(g, check.Respects)
	if elems == nil {
		return nil
	}
	ix := sym.NewEdgeIndex(g)
	lifted := make([][]int, 0, len(elems))
	for _, p := range elems {
		mp, ok := ix.MixedPerm(p)
		if !ok {
			return nil
		}
		lifted = append(lifted, mp)
	}
	return materialize(sym.NewEnumerator(g.N()+g.M(), lifted), f)
}

// cutReps builds the link-cut orbit plan for tables t on g under the
// given budget, over the edge-id universe (g.Edges() order — the same
// ids the WalkEngine cuts), or nil when pruning is unavailable.
func cutReps(t *routing.FailoverTables, g *graph.Graph, budget int) *prunedReps {
	check := sym.NewTablesCheck(t)
	elems := respectingElems(g, check.Respects)
	if elems == nil {
		return nil
	}
	ix := sym.NewEdgeIndex(g)
	lifted := make([][]int, 0, len(elems))
	for _, p := range elems {
		ep, ok := ix.Perm(p)
		if !ok {
			return nil
		}
		lifted = append(lifted, ep)
	}
	return materialize(sym.NewEnumerator(g.M(), lifted), budget)
}

// mixedCutReps is cutReps over the n+m mixed item universe of
// WorstMixedFaults.
func mixedCutReps(t *routing.FailoverTables, g *graph.Graph, budget int) *prunedReps {
	check := sym.NewTablesCheck(t)
	elems := respectingElems(g, check.Respects)
	if elems == nil {
		return nil
	}
	ix := sym.NewEdgeIndex(g)
	lifted := make([][]int, 0, len(elems))
	for _, p := range elems {
		mp, ok := ix.MixedPerm(p)
		if !ok {
			return nil
		}
		lifted = append(lifted, mp)
	}
	return materialize(sym.NewEnumerator(g.N()+g.M(), lifted), budget)
}

// applyDiff morphs an engine's fault set from the sorted item list cur
// to the sorted item list next with single-item toggles, returning
// next. Consecutive canonical representatives share long prefixes, so
// walking a plan this way keeps the per-set toggle count small.
func applyDiff(cur, next []int, toggle func(v int, add bool)) []int {
	i, j := 0, 0
	for i < len(cur) || j < len(next) {
		switch {
		case j >= len(next) || (i < len(cur) && cur[i] < next[j]):
			toggle(cur[i], false)
			i++
		case i >= len(cur) || next[j] < cur[i]:
			toggle(next[j], true)
			j++
		default:
			i++
			j++
		}
	}
	return next
}

// exhaustivePruned runs the exhaustive node-fault search over one
// canonical representative per orbit. ok is false when pruning is
// unavailable; callers then fall back to the plain enumeration.
// bounded selects the branch-and-bound representative walk.
func exhaustivePruned(s Survivor, f, workers int, bounded bool) (Result, bool) {
	if f < 0 {
		f = 0
	}
	plan := nodeReps(s, f)
	if plan == nil {
		return Result{}, false
	}
	eng := engineFor(s) // non-nil: nodeReps required RouteSource
	res := Result{WorstFaults: graph.NewBitset(eng.N())}
	switch {
	case bounded:
		return prunedSearch(plan, nil, workers).exec(eng, make([]*Engine, workers)).node(), true
	case workers > 1:
		eng.evalPrunedParallel(plan, workers, &res)
	default:
		eng.evalPruned(plan, &res)
	}
	return res, true
}

// exhaustiveMixedPruned is exhaustivePruned over the mixed universe.
func exhaustiveMixedPruned(s MixedSurvivor, f, workers int, bounded bool) (MixedResult, bool) {
	if f < 0 {
		f = 0
	}
	plan := mixedReps(s, f)
	if plan == nil {
		return MixedResult{}, false
	}
	eng := engineFor(s)
	edges := s.Graph().Edges()
	res := MixedResult{WorstNodeFaults: graph.NewBitset(eng.N())}
	switch {
	case bounded:
		return prunedSearch(plan, edges, workers).exec(eng, make([]*Engine, workers)), true
	case workers > 1:
		eng.evalPrunedMixedParallel(plan, edges, workers, &res)
	default:
		eng.evalPrunedMixed(plan, edges, &res)
	}
	return res, true
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

// planChunk computes the contiguous chunk length for fanning reps out
// over workers, the granularity the parallel pruned walks steal at.
func planChunk(reps, workers int) int {
	chunk := reps / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	return chunk
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

// considerEngineW folds the engine's current cut set into the running
// result with orbit weight mult — the pruned counterpart of consider,
// materializing the canonical witness only on strict improvement.
func (r *CutResult) considerEngineW(we *WalkEngine, mult int) {
	r.Evaluated += mult
	if s := we.Stats(); cutWorse(s, r.Stats) {
		r.Stats = s
		r.Worst = we.CutList()
	}
}

// evalPrunedCuts walks every representative cut set of plan on the
// engine (the empty set is the caller's seed), restoring the engine to
// cut-free on return.
func (we *WalkEngine) evalPrunedCuts(plan *prunedReps, res *CutResult) {
	toggle := func(v int, add bool) {
		if add {
			we.addCut(v)
		} else {
			we.removeCut(v)
		}
	}
	var cur []int
	for i, set := range plan.sets {
		cur = applyDiff(cur, set, toggle)
		res.considerEngineW(we, plan.mults[i])
	}
	for _, id := range cur {
		we.removeCut(id)
	}
}

// evalPrunedCutsParallel is evalPrunedCuts chunked over per-worker
// clones, merging sub-results in plan order.
func (we *WalkEngine) evalPrunedCutsParallel(plan *prunedReps, workers int, res *CutResult) {
	reps := len(plan.sets)
	if reps == 0 {
		return
	}
	if workers > reps {
		workers = reps
	}
	chunk := planChunk(reps, workers)
	nchunks := (reps + chunk - 1) / chunk
	per := make([]CutResult, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *WalkEngine
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				if c == nil {
					c = we.Clone()
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > reps {
					hi = reps
				}
				toggle := func(v int, add bool) {
					if add {
						c.addCut(v)
					} else {
						c.removeCut(v)
					}
				}
				var sub CutResult
				var cur []int
				for i := lo; i < hi; i++ {
					cur = applyDiff(cur, plan.sets[i], toggle)
					sub.considerEngineW(c, plan.mults[i])
				}
				for _, id := range cur {
					c.removeCut(id)
				}
				per[ci] = sub
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedCuts(res, r)
	}
}

// evalPrunedMixedCuts is evalPrunedCuts over the mixed item universe,
// honoring the result's λ comparator.
func (we *WalkEngine) evalPrunedMixedCuts(plan *prunedReps, res *MixedCutResult) {
	toggle := func(v int, add bool) { we.toggleMixedItem(v, add) }
	var cur []int
	for i, set := range plan.sets {
		cur = applyDiff(cur, set, toggle)
		res.considerEngineW(we, plan.mults[i])
	}
	for _, v := range cur {
		we.toggleMixedItem(v, false)
	}
}

// evalPrunedMixedCutsParallel is evalPrunedMixedCuts chunked over
// per-worker clones, merging sub-results in plan order.
func (we *WalkEngine) evalPrunedMixedCutsParallel(plan *prunedReps, workers int, res *MixedCutResult) {
	reps := len(plan.sets)
	if reps == 0 {
		return
	}
	if workers > reps {
		workers = reps
	}
	chunk := planChunk(reps, workers)
	nchunks := (reps + chunk - 1) / chunk
	per := make([]MixedCutResult, nchunks)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *WalkEngine
			for {
				ci := int(next.Add(1)) - 1
				if ci >= nchunks {
					return
				}
				if c == nil {
					c = we.Clone()
				}
				lo, hi := ci*chunk, (ci+1)*chunk
				if hi > reps {
					hi = reps
				}
				toggle := func(v int, add bool) { c.toggleMixedItem(v, add) }
				sub := MixedCutResult{worse: res.worse}
				var cur []int
				for i := lo; i < hi; i++ {
					cur = applyDiff(cur, plan.sets[i], toggle)
					sub.considerEngineW(c, plan.mults[i])
				}
				for _, v := range cur {
					c.toggleMixedItem(v, false)
				}
				per[ci] = sub
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixedCuts(res, r)
	}
}
