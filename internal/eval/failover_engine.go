package eval

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file runs the link-cut adversary of failover.go through the
// incremental WalkEngine: every enumeration step toggles one link and
// re-walks only the invalidated pairs, instead of re-walking all pairs
// per probed set. Enumeration orders, tie-breaking and Evaluated
// accounting replicate the legacy path exactly, so WorstLinkCuts and
// WorstLinkCutsLegacy return identical results, and the parallel
// variant merges per-unit sub-results in enumeration order the same
// way MaxDiameterMixedParallel does — bit-for-bit identical output,
// worst-cut witness included.

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
// goroutines on per-worker engine clones (workers <= 0 means
// GOMAXPROCS): exhaustive mode steals work over first-link enumeration
// prefixes, sampled mode evaluates pre-drawn cut sets in parallel and
// parallelizes each greedy round's candidate probes. Sub-results merge
// in enumeration order, so the result is bit-for-bit identical to the
// sequential search.
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
	we.sampledSearch(budget, cfg, workers, &res)
	return res
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

// sampledSearch mirrors sampledCuts on the engine: cfg.Samples random
// cut sets of size exactly budget (drawn from cfg.Seed in sequential
// order), then the concentrator probe, then (with cfg.Greedy) the
// greedy adversary. With workers > 1 the samples are evaluated on
// per-worker clones and the greedy rounds parallelize their candidate
// probes; merging stays in draw/enumeration order. One lazily built
// clone pool is shared between the sampling and greedy phases, so each
// worker clones the engine at most once for the whole search.
func (we *WalkEngine) sampledSearch(budget int, cfg Config, workers int, res *CutResult) {
	// worstLinkCuts already clamps, but the bound is re-checked here
	// because this function's termination depends on it: with budget
	// greater than the number of distinct links, the draw loop below
	// could never bring ids.Count() up to budget and would spin forever.
	if budget > we.m {
		budget = we.m
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	clones := make([]*WalkEngine, workers)
	if budget > 0 {
		sets := make([]*graph.Bitset, samples)
		for i := range sets {
			ids := graph.NewBitset(we.m)
			for ids.Count() < budget {
				ids.Add(rng.Intn(we.m))
			}
			sets[i] = ids
		}
		if workers > 1 {
			per := make([]CutResult, samples)
			var nextSample atomic.Int64
			var wg sync.WaitGroup
			sampleWorkers := workers
			if sampleWorkers > samples {
				sampleWorkers = samples
			}
			for w := 0; w < sampleWorkers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var c *WalkEngine // cloned on this worker's first sample
					for {
						i := int(nextSample.Add(1)) - 1
						if i >= samples {
							break
						}
						if c == nil {
							if clones[w] == nil {
								clones[w] = we.Clone()
							}
							c = clones[w]
						}
						c.setCutIDs(sets[i])
						var sub CutResult
						sub.consider(c.CutList(), c.Stats())
						per[i] = sub
					}
					if c != nil {
						c.Reset() // hand the pool to the greedy phase fault-free
					}
				}(w)
			}
			wg.Wait()
			for _, r := range per {
				mergeOrderedCuts(res, r)
			}
		} else {
			for _, ids := range sets {
				we.setCutIDs(ids)
				res.consider(we.CutList(), we.Stats())
			}
			we.Reset()
		}
	}
	we.concentratorSearch(budget, res)
	if cfg.Greedy {
		we.greedySearch(budget, workers, clones, res)
	}
}

// concentratorSearch enumerates every cut subset of size 1..budget of
// the links incident to the node holding the most table entries (ties
// to the lowest node id), in the graph's neighbor order — exactly the
// legacy concentratorCuts enumeration, run incrementally.
func (we *WalkEngine) concentratorSearch(budget int, res *CutResult) {
	conc := we.tables.Concentrator()
	if conc < 0 {
		return
	}
	var targets []int
	we.g.EachNeighbor(conc, func(w int) bool {
		if id, ok := we.edgeID[edgeKeyNorm(conc, w)]; ok {
			targets = append(targets, int(id))
		}
		return true
	})
	var cur []routing.EdgeFault
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			we.addCut(targets[i])
			cur = append(cur, we.edgeFaultOf(targets[i]))
			res.consider(cur, we.Stats())
			rec(i+1, left-1)
			we.removeCut(targets[i])
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, budget)
}

// greedySearch grows a cut set one link at a time, each round keeping
// the link whose addition disrupts the most pairs (ties to the lowest
// edge index) — the engine analogue of greedyCuts, with each round's
// candidate probes optionally spread over workers. Verdicts are reduced
// in edge order with the sequential tie-breaking, and per-worker clones
// are kept in sync by replaying the chosen cuts, exactly as
// greedyMixedParallel does. clones is the caller's lazily built pool
// (len >= workers); entries handed in must be fault-free, and any still
// nil are cloned on a worker's first candidate. The engine ends
// restored to cut-free.
func (we *WalkEngine) greedySearch(budget, workers int, clones []*WalkEngine, res *CutResult) {
	chosen := graph.NewBitset(we.m)
	var cur []routing.EdgeFault
	verdicts := make([]CutStats, we.m)
	measured := make([]bool, we.m)
	for round := 0; round < budget; round++ {
		for i := range measured {
			measured[i] = false
		}
		if workers > 1 {
			var nextCand atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					var c *WalkEngine // fetched only if this worker gets a candidate
					for {
						i := int(nextCand.Add(1)) - 1
						if i >= we.m {
							return
						}
						if chosen.Has(i) {
							continue
						}
						if c == nil {
							if clones[w] == nil {
								clones[w] = we.Clone()
							}
							c = clones[w]
						}
						c.addCut(i)
						verdicts[i] = c.Stats()
						measured[i] = true
						c.removeCut(i)
					}
				}(w)
			}
			wg.Wait()
		} else {
			for i := 0; i < we.m; i++ {
				if chosen.Has(i) {
					continue
				}
				we.addCut(i)
				verdicts[i] = we.Stats()
				measured[i] = true
				we.removeCut(i)
			}
		}
		bestI, bestStats := -1, CutStats{}
		for i := 0; i < we.m; i++ {
			if chosen.Has(i) || !measured[i] {
				continue
			}
			res.Evaluated++
			if bestI == -1 || cutWorse(verdicts[i], bestStats) {
				bestI, bestStats = i, verdicts[i]
			}
		}
		if bestI == -1 {
			break
		}
		chosen.Add(bestI)
		we.addCut(bestI)
		for _, c := range clones {
			if c != nil {
				c.addCut(bestI)
			}
		}
		cur = append(cur, we.edgeFaultOf(bestI))
		if cutWorse(bestStats, res.Stats) {
			res.Stats = bestStats
			res.Worst = sortedEdgeFaults(cur)
		}
	}
	for _, id := range chosen.Elements() {
		we.removeCut(id)
	}
}
