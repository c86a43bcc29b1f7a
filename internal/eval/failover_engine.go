package eval

import (
	"runtime"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file runs the link-cut adversary of failover.go through the
// incremental WalkEngine: every exhaustive enumeration step toggles one
// link and re-walks only the invalidated pairs, instead of re-walking
// all pairs per probed set; the sampled mode is the mixed search of
// mixedcuts.go restricted to the link items. Enumeration orders,
// tie-breaking and Evaluated accounting replicate the legacy path
// exactly, so WorstLinkCuts and WorstLinkCutsLegacy return identical
// results, and the parallel variant merges per-unit sub-results in
// enumeration order the same way MaxDiameterMixedParallel does —
// bit-for-bit identical output, worst-cut witness included.

// WorstLinkCuts searches for the cut set of size at most budget that
// disrupts the most (src, dst) pairs of the failover tables t, walking
// each pair packet-by-packet with local failover. g must be the graph
// the tables were compiled for (it supplies the cuttable links).
// Exhaustive mode is exact; the default Sampled mode combines random
// sampling, the concentrator probe, and (with cfg.Greedy) a greedy
// grow-one-link adversary. The empty cut set is always evaluated first,
// so a returned empty Worst means no evaluated cut disrupts anything.
// The search runs on the incremental WalkEngine; results are
// bit-for-bit identical to WorstLinkCutsLegacy.
func WorstLinkCuts(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) CutResult {
	return worstLinkCutsOn(t, g, budget, cfg, 1)
}

// WorstLinkCutsParallel is WorstLinkCuts fanned out over worker
// goroutines (workers <= 0 means GOMAXPROCS): exhaustive mode steals
// work over first-link enumeration prefixes on per-worker engine
// clones; sampled mode probes the pre-drawn cut sets and each greedy
// round's candidate links concurrently on the one shared engine.
// Sub-results merge in enumeration order, so the result is bit-for-bit
// identical to the sequential search.
func WorstLinkCutsParallel(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int) CutResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return worstLinkCutsOn(t, g, budget, cfg, workers)
}

// worstLinkCutsOn compiles the engine and, in Exhaustive mode with
// cfg.Pruned, tries the orbit-pruned enumeration first: when the tables
// are strictly equivariant under a nontrivial automorphism subgroup,
// only one canonical representative per cut-set orbit is walked and its
// orbit size reconstructs the plain Evaluated count. Otherwise (or when
// the symmetry check fails) it runs the plain search.
func worstLinkCutsOn(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int) CutResult {
	we := NewWalkEngine(t, g)
	if cfg.Mode == Exhaustive && cfg.Pruned {
		b := budget
		if b < 0 {
			b = 0
		}
		if b > we.m {
			b = we.m
		}
		if plan := cutReps(t, g, b); plan != nil {
			res := CutResult{Worst: []routing.EdgeFault{}, Stats: we.Stats(), Evaluated: 1}
			if workers > 1 {
				we.evalPrunedCutsParallel(plan, workers, &res)
			} else {
				we.evalPrunedCuts(plan, &res)
			}
			return res
		}
	}
	return worstLinkCuts(we, budget, cfg, workers)
}

// worstLinkCuts is the shared search driver over one compiled engine.
func worstLinkCuts(we *WalkEngine, budget int, cfg Config, workers int) CutResult {
	if budget < 0 {
		budget = 0
	}
	if budget > we.m {
		budget = we.m
	}
	// The empty cut set seeds the incumbent unconditionally; consider()
	// only replaces it on strictly more disruption.
	res := CutResult{Worst: []routing.EdgeFault{}, Stats: we.Stats(), Evaluated: 1}
	if cfg.Mode == Exhaustive {
		if workers > 1 && budget > 0 {
			we.exhaustiveSearchParallel(budget, workers, &res)
		} else {
			var cur []routing.EdgeFault
			we.descendCuts(0, budget, &cur, &res)
		}
		return res
	}
	// Sampled mode is the mixed search restricted to the link items.
	mres := MixedCutResult{WorstNodes: []int{}, WorstCuts: res.Worst, Stats: res.Stats, Evaluated: res.Evaluated}
	we.sampledMixedCuts(we.n, budget, cfg, workers, &mres)
	return CutResult{Worst: mres.WorstCuts, Stats: mres.Stats, Evaluated: mres.Evaluated}
}

// edgeFaultOf returns link id as an EdgeFault (already normalized:
// g.Edges() yields u < v).
func (we *WalkEngine) edgeFaultOf(id int) routing.EdgeFault {
	return routing.EdgeFault{U: int(we.edgeU[id]), V: int(we.edgeV[id])}
}

// descendCuts enumerates every cut set of size 1..left starting at edge
// `start` in lexicographic preorder, toggling one link per step — the
// engine analogue of exhaustiveCuts.
func (we *WalkEngine) descendCuts(start, left int, cur *[]routing.EdgeFault, res *CutResult) {
	if left == 0 {
		return
	}
	for i := start; i < we.m; i++ {
		we.addCut(i)
		*cur = append(*cur, we.edgeFaultOf(i))
		res.consider(*cur, we.Stats())
		we.descendCuts(i+1, left-1, cur, res)
		we.removeCut(i)
		*cur = (*cur)[:len(*cur)-1]
	}
}

// mergeOrderedCuts folds sub-result r into merged, where r covers a
// span of the enumeration strictly after everything already merged.
// cutWorse is a strict comparison, so replaying the fold in order keeps
// the sequential "first strictly-better set wins" witness exactly.
func mergeOrderedCuts(merged *CutResult, r CutResult) {
	merged.Evaluated += r.Evaluated
	if cutWorse(r.Stats, merged.Stats) {
		merged.Stats = r.Stats
		merged.Worst = r.Worst
	}
}

// exhaustiveSearchParallel enumerates all cut sets of size 1..budget.
// Work unit i is the subtree of sets whose first (smallest-id) link is
// i; workers steal contiguous batches of units from a shared counter,
// each on one lazily created engine clone reused across its batches, and
// per-unit results merge in enumeration order — so the result stays
// bit-for-bit identical to the sequential search.
func (we *WalkEngine) exhaustiveSearchParallel(budget, workers int, res *CutResult) {
	m := we.m
	if workers > m {
		workers = m
	}
	per := make([]CutResult, m)
	batch := m / (workers * 4)
	if batch < 1 {
		batch = 1
	}
	var nextUnit atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *WalkEngine
			for {
				lo := int(nextUnit.Add(int64(batch))) - batch
				if lo >= m {
					return
				}
				hi := lo + batch
				if hi > m {
					hi = m
				}
				if c == nil {
					c = we.Clone()
				}
				for i := lo; i < hi; i++ {
					var sub CutResult
					cur := []routing.EdgeFault{c.edgeFaultOf(i)}
					c.addCut(i)
					sub.consider(cur, c.Stats())
					c.descendCuts(i+1, budget-1, &cur, &sub)
					c.removeCut(i)
					per[i] = sub
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedCuts(res, r)
	}
}
