package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file is the packet-level adversary over the paper's literal
// fault model: up to budget failed *nodes or links* — the mixed-universe
// counterpart of WorstLinkCuts, sharing its objective (disrupt the most
// pairs) and its search modes. All searches enumerate the n+m item
// universe of MaxDiameterMixed (nodes first, then g.Edges() in order),
// one WalkEngine toggle per step. A failed node removes its own pairs
// from play rather than disrupting them: those pairs count as Skipped
// and earn the adversary nothing, so the searches reward fault sets
// that strand *other* pairs' packets — the concentrator phenomenon of
// the paper, where killing one switch severs routes passing through it.

// MixedCutResult reports the worst mixed fault set found against a
// table set.
type MixedCutResult struct {
	WorstNodes []int               // node part of the worst set, sorted
	WorstCuts  []routing.EdgeFault // link part, normalized and sorted
	Stats      CutStats            // outcomes under the worst set
	Evaluated  int                 // number of mixed fault sets evaluated

	// worse is the strict-improvement comparison used while searching
	// (nil means cutWorse). It carries Config.SkippedWeight's λ through
	// every fold and is cleared before the result is returned, so
	// returned values stay plain data.
	worse func(a, b CutStats) bool
}

// String renders the result compactly.
func (r MixedCutResult) String() string {
	return fmt.Sprintf("worst mixed F=%v E=%v: %v (%d sets)", r.WorstNodes, r.WorstCuts, r.Stats, r.Evaluated)
}

// sortedNodes returns a sorted copy — the canonical node-witness form
// shared by the engine and legacy paths (never nil, like
// sortedEdgeFaults).
func sortedNodes(nodes []int) []int {
	out := append(make([]int, 0, len(nodes)), nodes...)
	sort.Ints(out)
	return out
}

// consider folds one evaluated mixed set into the running result
// (legacy path; the engine path uses considerEngine).
func (r *MixedCutResult) consider(nodes []int, cuts []routing.EdgeFault, s CutStats) {
	r.Evaluated++
	if isWorse(r.worse, s, r.Stats) {
		r.Stats = s
		r.WorstNodes = sortedNodes(nodes)
		r.WorstCuts = sortedEdgeFaults(cuts)
	}
}

// considerEngine folds the engine's current mixed fault set into the
// running result, materializing the canonical witness only on strict
// improvement.
func (r *MixedCutResult) considerEngine(we *WalkEngine) { r.considerEngineW(we, 1) }

// considerEngineW is considerEngine counting the current set for mult
// evaluations — the orbit-pruned search folds one canonical
// representative per orbit and reconstructs the plain Evaluated count
// from orbit sizes.
func (r *MixedCutResult) considerEngineW(we *WalkEngine, mult int) {
	r.Evaluated += mult
	if s := we.Stats(); isWorse(r.worse, s, r.Stats) {
		r.Stats = s
		r.WorstNodes = we.NodeFaultList()
		r.WorstCuts = we.CutList()
	}
}

// EvaluateMixedFaults walks every table pair under the given failed
// nodes and cut links and returns the outcome counts — the single-set
// evaluation the mixed adversary searches over, exported for
// experiments and the CLI. Pairs with a failed endpoint are Skipped.
func EvaluateMixedFaults(t *routing.FailoverTables, nodes []int, cuts []routing.EdgeFault) CutStats {
	return walkAllPairsMixed(t, routing.FaultSetOf(t.N(), nodes, cuts))
}

// WorstMixedFaults searches mixed fault sets — any combination of
// failed nodes and cut links of total size at most budget — for the one
// disrupting the most (src, dst) pairs of the failover tables t, walking
// each surviving pair packet-by-packet with local failover. g must be
// the graph the tables were compiled for. Exhaustive mode is exact over
// the n+m item universe; the default Sampled mode combines random
// mixed sets, the concentrator probe (the concentrator node itself plus
// its wires), and with cfg.Greedy a greedy grow-one-item adversary. The
// empty set is always evaluated first. Results are bit-for-bit
// identical to WorstMixedFaultsLegacy.
func WorstMixedFaults(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) MixedCutResult {
	return worstMixedFaultsOn(t, g, budget, cfg, 1)
}

// WorstMixedFaultsParallel is WorstMixedFaults fanned out over worker
// goroutines on per-worker engine clones (workers <= 0 means
// GOMAXPROCS), with the work-stealing and ordered-merge structure of
// WorstLinkCutsParallel — the result is bit-for-bit identical to the
// sequential search.
func WorstMixedFaultsParallel(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int) MixedCutResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return worstMixedFaultsOn(t, g, budget, cfg, workers)
}

// worstMixedFaultsOn compiles the engine and, in Exhaustive mode with
// cfg.Pruned, tries the orbit-pruned enumeration first: when the tables
// are strictly equivariant under a nontrivial automorphism subgroup,
// only one canonical representative per mixed-set orbit is walked.
// Otherwise (or when the symmetry check fails) it runs the plain search.
func worstMixedFaultsOn(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config, workers int) MixedCutResult {
	we := NewWalkEngine(t, g)
	if cfg.Mode == Exhaustive && cfg.Pruned {
		items := we.n + we.m
		b := budget
		if b < 0 {
			b = 0
		}
		if b > items {
			b = items
		}
		if plan := mixedCutReps(t, g, b); plan != nil {
			res := MixedCutResult{WorstNodes: []int{}, WorstCuts: []routing.EdgeFault{},
				Stats: we.Stats(), Evaluated: 1, worse: worseForWeight(cfg.SkippedWeight)}
			if workers > 1 {
				we.evalPrunedMixedCutsParallel(plan, workers, &res)
			} else {
				we.evalPrunedMixedCuts(plan, &res)
			}
			res.worse = nil
			return res
		}
	}
	return worstMixedFaults(we, budget, cfg, workers)
}

// worstMixedFaults is the shared search driver over one compiled engine.
func worstMixedFaults(we *WalkEngine, budget int, cfg Config, workers int) MixedCutResult {
	items := we.n + we.m
	if budget < 0 {
		budget = 0
	}
	if budget > items {
		budget = items
	}
	// The empty set seeds the incumbent unconditionally; consider only
	// replaces it on strictly more disruption.
	res := MixedCutResult{WorstNodes: []int{}, WorstCuts: []routing.EdgeFault{},
		Stats: we.Stats(), Evaluated: 1, worse: worseForWeight(cfg.SkippedWeight)}
	if cfg.Mode == Exhaustive {
		if workers > 1 && budget > 0 {
			we.exhaustiveMixedCutsParallel(budget, workers, &res)
		} else {
			we.descendMixedCuts(0, budget, &res)
		}
		res.worse = nil
		return res
	}
	we.sampledMixedCuts(budget, cfg, workers, &res)
	res.worse = nil
	return res
}

// descendMixedCuts enumerates every mixed fault set of size 1..left
// whose items are >= start, in lexicographic preorder over the item
// universe, toggling one item per step.
func (we *WalkEngine) descendMixedCuts(start, left int, res *MixedCutResult) {
	if left == 0 {
		return
	}
	items := we.n + we.m
	for v := start; v < items; v++ {
		we.toggleMixedItem(v, true)
		res.considerEngine(we)
		we.descendMixedCuts(v+1, left-1, res)
		we.toggleMixedItem(v, false)
	}
}

// mergeOrderedMixedCuts folds sub-result r into merged, where r covers
// a span of the enumeration strictly after everything already merged;
// replaying the strict-improvement fold in order keeps the sequential
// first-strictly-better witness exactly.
func mergeOrderedMixedCuts(merged *MixedCutResult, r MixedCutResult) {
	merged.Evaluated += r.Evaluated
	if isWorse(merged.worse, r.Stats, merged.Stats) {
		merged.Stats = r.Stats
		merged.WorstNodes = r.WorstNodes
		merged.WorstCuts = r.WorstCuts
	}
}

// exhaustiveMixedCutsParallel enumerates all mixed sets of size
// 1..budget: work unit i is the subtree of sets whose first (lowest)
// item is i, workers steal contiguous batches of units on lazily
// created clones reused across batches, and per-unit results merge in
// enumeration order — the structure of exhaustiveSearchParallel.
func (we *WalkEngine) exhaustiveMixedCutsParallel(budget, workers int, res *MixedCutResult) {
	items := we.n + we.m
	if workers > items {
		workers = items
	}
	per := make([]MixedCutResult, items)
	batch := items / (workers * 4)
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
				if lo >= items {
					return
				}
				hi := lo + batch
				if hi > items {
					hi = items
				}
				if c == nil {
					c = we.Clone()
				}
				for i := lo; i < hi; i++ {
					sub := MixedCutResult{worse: res.worse}
					c.toggleMixedItem(i, true)
					sub.considerEngine(c)
					c.descendMixedCuts(i+1, budget-1, &sub)
					c.toggleMixedItem(i, false)
					per[i] = sub
				}
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixedCuts(res, r)
	}
}

// sampledMixedCuts mirrors sampledSearch on the mixed universe:
// cfg.Samples random mixed sets of size exactly budget (drawn from
// cfg.Seed in sequential order), the concentrator probe, then with
// cfg.Greedy the greedy adversary, sharing one lazily built clone pool
// between the sampling and greedy phases.
func (we *WalkEngine) sampledMixedCuts(budget int, cfg Config, workers int, res *MixedCutResult) {
	items := we.n + we.m
	// Termination bound, same class as sampledSearch's: a budget past
	// the universe size would spin the draw loop forever.
	if budget > items {
		budget = items
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	clones := make([]*WalkEngine, workers)
	if budget > 0 && items > 0 {
		sets := make([]*graph.Bitset, samples)
		for i := range sets {
			ids := graph.NewBitset(items)
			for ids.Count() < budget {
				ids.Add(rng.Intn(items))
			}
			sets[i] = ids
		}
		if workers > 1 {
			per := make([]MixedCutResult, samples)
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
					var c *WalkEngine
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
						c.setMixedItemIDs(sets[i])
						sub := MixedCutResult{worse: res.worse}
						sub.considerEngine(c)
						per[i] = sub
					}
					if c != nil {
						c.Reset() // hand the pool to the greedy phase fault-free
					}
				}(w)
			}
			wg.Wait()
			for _, r := range per {
				mergeOrderedMixedCuts(res, r)
			}
		} else {
			for _, ids := range sets {
				we.setMixedItemIDs(ids)
				res.considerEngine(we)
			}
			we.Reset()
		}
	}
	we.concentratorMixedCuts(budget, res)
	if cfg.Greedy {
		we.greedyMixedCuts(budget, workers, clones, res)
	}
}

// concentratorMixedCuts enumerates every fault subset of size 1..budget
// of the mixed concentrator targets: the node holding the most table
// entries (ties to the lowest id) followed by its incident links in
// neighbor order. Killing the concentrator itself is the paper's node
// attack; cutting its wires is the link attack — the probe covers every
// combination of the two within budget.
func (we *WalkEngine) concentratorMixedCuts(budget int, res *MixedCutResult) {
	conc := we.tables.Concentrator()
	if conc < 0 {
		return
	}
	targets := []int{conc}
	we.g.EachNeighbor(conc, func(w int) bool {
		if id, ok := we.edgeID[edgeKeyNorm(conc, w)]; ok {
			targets = append(targets, we.n+int(id))
		}
		return true
	})
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			we.toggleMixedItem(targets[i], true)
			res.considerEngine(we)
			rec(i+1, left-1)
			we.toggleMixedItem(targets[i], false)
		}
	}
	rec(0, budget)
}

// greedyMixedCuts grows a mixed fault set one item at a time, each
// round keeping the item whose addition disrupts the most pairs (ties
// to the lowest item), candidate probes optionally spread over the
// caller's clone pool exactly as greedySearch does. The engine ends
// restored to fault-free.
func (we *WalkEngine) greedyMixedCuts(budget, workers int, clones []*WalkEngine, res *MixedCutResult) {
	items := we.n + we.m
	chosen := graph.NewBitset(items)
	verdicts := make([]CutStats, items)
	measured := make([]bool, items)
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
						if i >= items {
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
						c.toggleMixedItem(i, true)
						verdicts[i] = c.Stats()
						measured[i] = true
						c.toggleMixedItem(i, false)
					}
				}(w)
			}
			wg.Wait()
		} else {
			for i := 0; i < items; i++ {
				if chosen.Has(i) {
					continue
				}
				we.toggleMixedItem(i, true)
				verdicts[i] = we.Stats()
				measured[i] = true
				we.toggleMixedItem(i, false)
			}
		}
		bestI, bestStats := -1, CutStats{}
		for i := 0; i < items; i++ {
			if chosen.Has(i) || !measured[i] {
				continue
			}
			res.Evaluated++
			if bestI == -1 || isWorse(res.worse, verdicts[i], bestStats) {
				bestI, bestStats = i, verdicts[i]
			}
		}
		if bestI == -1 {
			break
		}
		chosen.Add(bestI)
		we.toggleMixedItem(bestI, true)
		for _, c := range clones {
			if c != nil {
				c.toggleMixedItem(bestI, true)
			}
		}
		if isWorse(res.worse, bestStats, res.Stats) {
			res.Stats = bestStats
			res.WorstNodes = we.NodeFaultList()
			res.WorstCuts = we.CutList()
		}
	}
	we.Reset()
}

// WorstMixedFaultsLegacy is the reference implementation of the mixed
// adversary: every probed fault set re-walks all pairs from scratch via
// walkAllPairsMixed. WorstMixedFaults runs the same search through the
// incremental WalkEngine and is bit-for-bit equivalent (enumeration
// orders, tie-breaking, Evaluated accounting and witness included); the
// legacy path is kept as the oracle for the equivalence tests, the fuzz
// target and the CI bench-ratio gate.
func WorstMixedFaultsLegacy(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) MixedCutResult {
	st := &legacyMixedWalkState{t: t, g: g, edges: g.Edges(), n: g.N(), faults: routing.NewFaultSet(t.N())}
	items := st.n + len(st.edges)
	if budget < 0 {
		budget = 0
	}
	if budget > items {
		budget = items
	}
	res := MixedCutResult{WorstNodes: []int{}, WorstCuts: []routing.EdgeFault{},
		Stats: walkAllPairsMixed(t, st.faults), Evaluated: 1, worse: worseForWeight(cfg.SkippedWeight)}
	if cfg.Mode == Exhaustive {
		st.descend(0, budget, &res)
		res.worse = nil
		return res
	}
	st.sampled(budget, cfg, &res)
	res.worse = nil
	return res
}

// legacyMixedWalkState carries the mutable enumeration state of the
// legacy mixed adversary: one shared fault set plus the current item
// lists, toggled one item per step like the engine but re-walking all
// pairs per probed set.
type legacyMixedWalkState struct {
	t      *routing.FailoverTables
	g      *graph.Graph
	edges  [][2]int
	n      int
	faults *routing.FaultSet
	nodes  []int               // current failed nodes, insertion order
	cuts   []routing.EdgeFault // current cut links, insertion order
}

// toggle adds or removes universe item v. Removal pops the item's list,
// so it must undo the most recent addition of that kind — the LIFO
// discipline every enumeration below follows.
func (st *legacyMixedWalkState) toggle(v int, add bool) {
	if v < st.n {
		if add {
			st.faults.FailNode(v)
			st.nodes = append(st.nodes, v)
		} else {
			st.faults.RepairNode(v)
			st.nodes = st.nodes[:len(st.nodes)-1]
		}
		return
	}
	e := routing.EdgeFault{U: st.edges[v-st.n][0], V: st.edges[v-st.n][1]}
	if add {
		st.faults.FailLink(e.U, e.V)
		st.cuts = append(st.cuts, e)
	} else {
		st.faults.RepairLink(e.U, e.V)
		st.cuts = st.cuts[:len(st.cuts)-1]
	}
}

// eval re-walks all pairs under the current fault set.
func (st *legacyMixedWalkState) eval() CutStats { return walkAllPairsMixed(st.t, st.faults) }

// descend is the legacy mirror of descendMixedCuts.
func (st *legacyMixedWalkState) descend(start, left int, res *MixedCutResult) {
	if left == 0 {
		return
	}
	items := st.n + len(st.edges)
	for v := start; v < items; v++ {
		st.toggle(v, true)
		res.consider(st.nodes, st.cuts, st.eval())
		st.descend(v+1, left-1, res)
		st.toggle(v, false)
	}
}

// sampled is the legacy mirror of sampledMixedCuts: identical draws
// from the same seed, the same concentrator targets, the same greedy
// rounds.
func (st *legacyMixedWalkState) sampled(budget int, cfg Config, res *MixedCutResult) {
	items := st.n + len(st.edges)
	if budget > items {
		budget = items
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	if budget > 0 && items > 0 {
		for s := 0; s < samples; s++ {
			ids := graph.NewBitset(items)
			for ids.Count() < budget {
				ids.Add(rng.Intn(items))
			}
			drawn := ids.Elements()
			for _, v := range drawn {
				st.toggle(v, true)
			}
			res.consider(st.nodes, st.cuts, st.eval())
			for i := len(drawn) - 1; i >= 0; i-- {
				st.toggle(drawn[i], false)
			}
		}
	}
	st.concentrator(budget, res)
	if cfg.Greedy {
		st.greedy(budget, res)
	}
}

// concentrator is the legacy mirror of concentratorMixedCuts.
func (st *legacyMixedWalkState) concentrator(budget int, res *MixedCutResult) {
	conc := st.t.Concentrator()
	if conc < 0 {
		return
	}
	edgeID := make(map[[2]int]int, len(st.edges))
	for i, e := range st.edges {
		edgeID[e] = i
	}
	targets := []int{conc}
	st.g.EachNeighbor(conc, func(w int) bool {
		key := [2]int{conc, w}
		if conc > w {
			key = [2]int{w, conc}
		}
		if id, ok := edgeID[key]; ok {
			targets = append(targets, st.n+id)
		}
		return true
	})
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			st.toggle(targets[i], true)
			res.consider(st.nodes, st.cuts, st.eval())
			rec(i+1, left-1)
			st.toggle(targets[i], false)
		}
	}
	rec(0, budget)
}

// greedy is the legacy mirror of greedyMixedCuts. The fault set ends
// restored to empty.
func (st *legacyMixedWalkState) greedy(budget int, res *MixedCutResult) {
	items := st.n + len(st.edges)
	chosen := graph.NewBitset(items)
	var grown []int
	for round := 0; round < budget; round++ {
		bestI, bestStats := -1, CutStats{}
		for v := 0; v < items; v++ {
			if chosen.Has(v) {
				continue
			}
			st.toggle(v, true)
			res.Evaluated++
			s := st.eval()
			if bestI == -1 || isWorse(res.worse, s, bestStats) {
				bestI, bestStats = v, s
			}
			st.toggle(v, false)
		}
		if bestI == -1 {
			break
		}
		chosen.Add(bestI)
		st.toggle(bestI, true)
		grown = append(grown, bestI)
		if isWorse(res.worse, bestStats, res.Stats) {
			res.Stats = bestStats
			res.WorstNodes = sortedNodes(st.nodes)
			res.WorstCuts = sortedEdgeFaults(st.cuts)
		}
	}
	for i := len(grown) - 1; i >= 0; i-- {
		st.toggle(grown[i], false)
	}
}
