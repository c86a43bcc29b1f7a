package eval

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// MaxDiameterParallel is MaxDiameter with the fault-set search fanned
// out over worker goroutines (GOMAXPROCS when workers <= 0). When the
// Survivor is a RouteSource, Exhaustive mode runs the branch-and-bound
// executor on per-worker Engine clones that steal first-item
// enumeration prefixes (or chunks of orbit representatives) and share
// one incumbent, and Sampled mode spreads pre-drawn sample sets plus
// per-round greedy candidates over the clones. Sub-results are folded
// back in enumeration order, so the merged result — including the
// worst-case witness — is bit-for-bit identical to the sequential
// search. For plain Survivors only the exhaustive mode is parallelized
// (with the documented ties-may-differ witness caveat).
func MaxDiameterParallel(s Survivor, f int, cfg Config, workers int) Result {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Mode == Exhaustive {
		return exhaustiveOn(s, f, cfg.Pruned, workers)
	}
	if f < 0 {
		f = 0
	}
	if workers == 1 {
		return MaxDiameter(s, f, cfg) // before compiling an engine this path would discard
	}
	eng := engineFor(s)
	if eng == nil {
		return MaxDiameter(s, f, cfg)
	}
	return eng.sampledParallel(f, cfg, workers)
}

// mergeOrdered folds sub-result r into merged, where r covers a span of
// the enumeration strictly after everything already merged. Replaying
// the fold in order preserves the sequential semantics exactly: the
// first disconnection freezes the diameter and owns the witness, and
// the first set achieving the maximum diameter is the witness otherwise.
func mergeOrdered(merged *Result, r Result) {
	merged.Evaluated += r.Evaluated
	if merged.Disconnected {
		return
	}
	if r.MaxDiameter > merged.MaxDiameter {
		merged.MaxDiameter = r.MaxDiameter
		if !r.Disconnected {
			merged.WorstFaults = r.WorstFaults
		}
	}
	if r.Disconnected {
		merged.Disconnected = true
		merged.WorstFaults = r.WorstFaults
	}
}

// sampledParallel evaluates pre-drawn random fault sets on per-worker
// clones, then (optionally) runs the greedy adversary with its
// candidate probes parallelized per round. The random sets are drawn
// up front from the seeded rng in the same order as the sequential
// path, so the result is identical to MaxDiameter in Sampled mode.
func (e *Engine) sampledParallel(f int, cfg Config, workers int) Result {
	n := e.n
	if f > n {
		f = n
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	merged := Result{WorstFaults: graph.NewBitset(n)}
	e.fold(&merged) // empty set
	sets := make([]*graph.Bitset, samples)
	for i := range sets {
		sets[i] = drawFaults(rng, n, f)
	}
	per := make([]Result, samples)
	var nextSample atomic.Int64
	var wg sync.WaitGroup
	// Clamp only the sampling fan-out; the greedy phase below has its
	// own candidate-level parallelism and keeps the caller's workers.
	sampleWorkers := workers
	if sampleWorkers > samples {
		sampleWorkers = samples
	}
	for w := 0; w < sampleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Clone()
			for {
				i := int(nextSample.Add(1)) - 1
				if i >= samples {
					return
				}
				c.SetFaults(sets[i])
				res := Result{WorstFaults: graph.NewBitset(n)}
				c.fold(&res)
				per[i] = res
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrdered(&merged, r)
	}
	if cfg.Greedy {
		e.greedyParallel(f, &merged, workers)
	}
	return merged
}

// greedyParallel is the engine greedyAdversary with each round's
// candidate probes spread over workers. Candidate verdicts are reduced
// in node order with the sequential tie-breaking, so the grown fault
// set (and hence the result) matches the serial adversary exactly.
// The engine must start fault-free; it ends holding the grown set.
//
// Probes are branch-and-bound: an atomic per-round incumbent lets a
// losing candidate stop after the diameterAbove pivot BFS (threshold
// incumbent−1 keeps ties exact, so the winning candidate — the lowest
// item achieving the round maximum — is always measured exactly), and
// an atomic lowest-disconnecting-item index skips probes that a
// smaller disconnecting candidate already beats. Neither shortcut can
// change the round winner, so the grown set matches the serial
// adversary bit for bit.
func (e *Engine) greedyParallel(f int, res *Result, workers int) {
	type verdict struct {
		diam     int
		disc     bool
		measured bool // more than one alive node remained after the probe
	}
	n := e.n
	verdicts := make([]verdict, n)
	// Per-worker clones are created lazily and kept in sync with e
	// across rounds (each chosen fault is a cheap incremental toggle),
	// so the engine's mutable state is copied at most once per worker
	// for the whole search rather than once per round.
	clones := make([]*Engine, workers)
	for round := 0; round < f; round++ {
		for i := range verdicts {
			verdicts[i] = verdict{}
		}
		var nextCand, roundBest, minDisc atomic.Int64
		minDisc.Store(int64(n))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var c *Engine // fetched only if this worker gets a candidate
				for {
					v := int(nextCand.Add(1)) - 1
					if v >= n {
						return
					}
					if e.HasFault(v) {
						continue
					}
					if minDisc.Load() < int64(v) {
						// A smaller disconnecting candidate already wins
						// this round; leave v unmeasured (the reduction
						// still counts it as evaluated).
						continue
					}
					if c == nil {
						if clones[w] == nil {
							clones[w] = e.Clone()
						}
						c = clones[w]
					}
					c.AddFault(v)
					if c.AliveCount() > 1 {
						limit := int(roundBest.Load()) - 1
						diam, above, connected := c.diameterAbove(limit)
						switch {
						case !connected:
							verdicts[v] = verdict{disc: true, measured: true}
							casMin(&minDisc, int64(v))
						case above:
							verdicts[v] = verdict{diam: diam, measured: true}
							casMax(&roundBest, int64(diam))
						default:
							// Strictly below an exactly-measured rival;
							// diam −1 can never win the reduction.
							verdicts[v] = verdict{diam: -1, measured: true}
						}
					}
					c.RemoveFault(v)
				}
			}(w)
		}
		wg.Wait()
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := 0; v < n; v++ {
			if e.HasFault(v) {
				continue
			}
			res.Evaluated++
			cand := verdicts[v]
			if !cand.measured {
				continue
			}
			if cand.disc && !bestDisc {
				bestV, bestDiam, bestDisc = v, cand.diam, true
			} else if !cand.disc && !bestDisc && cand.diam > bestDiam {
				bestV, bestDiam = v, cand.diam
			}
		}
		if bestV == -1 {
			break
		}
		e.AddFault(bestV)
		for _, c := range clones {
			if c != nil {
				c.AddFault(bestV)
			}
		}
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstFaults = e.Faults()
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstFaults = e.Faults()
		}
	}
}

// MaxDiameterMixedParallel is MaxDiameterMixed with the search fanned
// out over worker goroutines on per-worker Engine clones (GOMAXPROCS
// when workers <= 0). Exhaustive mode runs the branch-and-bound
// executor, stealing first-item enumeration prefixes of the n+m
// universe (or chunks of orbit representatives); Sampled mode evaluates
// pre-drawn mixed sets in parallel and then runs the greedy mixed
// adversary with its candidate probes parallelized per round. Results
// are bit-for-bit identical to the sequential search because
// sub-results are folded back in enumeration order. Survivors that
// cannot enumerate their routes fall back to the sequential legacy
// search.
func MaxDiameterMixedParallel(s MixedSurvivor, f int, cfg Config, workers int) MixedResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Mode == Exhaustive {
		return exhaustiveMixedOn(s, f, cfg.Pruned, workers)
	}
	if f < 0 {
		f = 0
	}
	if workers == 1 {
		return MaxDiameterMixed(s, f, cfg) // before compiling an engine this path would discard
	}
	eng := engineFor(s)
	if eng == nil {
		return MaxDiameterMixed(s, f, cfg)
	}
	return eng.sampledMixedParallel(s, f, cfg, workers, s.Graph().Edges())
}

// mergeOrderedMixed is mergeOrdered over mixed sub-results.
func mergeOrderedMixed(merged *MixedResult, r MixedResult) {
	merged.Evaluated += r.Evaluated
	if merged.Disconnected {
		return
	}
	if r.MaxDiameter > merged.MaxDiameter {
		merged.MaxDiameter = r.MaxDiameter
		if !r.Disconnected {
			merged.WorstNodeFaults = r.WorstNodeFaults
			merged.WorstEdgeFaults = r.WorstEdgeFaults
		}
	}
	if r.Disconnected {
		merged.Disconnected = true
		merged.WorstNodeFaults = r.WorstNodeFaults
		merged.WorstEdgeFaults = r.WorstEdgeFaults
	}
}

// sampledMixedParallel evaluates pre-drawn random mixed sets on
// per-worker clones; the sets are drawn up front from the seeded rng in
// sequential order, so the merged result matches sampledMixed exactly.
// The optional greedy phase spreads each round's candidate probes over
// the same workers, with the sequential reduction order.
func (e *Engine) sampledMixedParallel(s MixedSurvivor, f int, cfg Config, workers int, edges [][2]int) MixedResult {
	n := e.n
	if f > n+len(edges) {
		f = n + len(edges)
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	merged := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	e.foldMixed(&merged) // empty set
	type drawn struct {
		nf *graph.Bitset
		ef []routing.EdgeFault
	}
	sets := make([]drawn, samples)
	for i := range sets {
		sets[i].nf, sets[i].ef = drawMixedFaults(rng, n, edges, f)
	}
	per := make([]MixedResult, samples)
	var nextSample atomic.Int64
	var wg sync.WaitGroup
	sampleWorkers := workers
	if sampleWorkers > samples {
		sampleWorkers = samples
	}
	for w := 0; w < sampleWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.Clone()
			for {
				i := int(nextSample.Add(1)) - 1
				if i >= samples {
					return
				}
				c.SetMixedFaults(sets[i].nf, sets[i].ef)
				res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
				c.foldMixed(&res)
				per[i] = res
			}
		}()
	}
	wg.Wait()
	for _, r := range per {
		mergeOrderedMixed(&merged, r)
	}
	if cfg.Greedy {
		e.greedyMixedParallel(f, edges, &merged, workers)
		e.Reset()
	}
	return merged
}

// greedyMixedParallel is the engine greedyMixed (with node items
// included) with each round's candidate probes spread over workers.
// Candidate verdicts are reduced in item order with the sequential
// tie-breaking — disconnection preferred, then lowest item — so the
// grown mixed set (and hence the result) matches the serial adversary
// exactly. The engine must start fault-free; it ends holding the
// grown set.
func (e *Engine) greedyMixedParallel(f int, edges [][2]int, res *MixedResult, workers int) {
	type verdict struct {
		diam     int
		disc     bool
		measured bool // more than one alive node remained after the probe
	}
	items := e.n + len(edges)
	chosen := graph.NewBitset(items)
	verdicts := make([]verdict, items)
	// Per-worker clones are created lazily and kept in sync with e
	// across rounds, exactly as in greedyParallel; `chosen` is only
	// mutated between rounds, so workers may read it freely. Probes are
	// branch-and-bound with the same per-round incumbent and lowest-
	// disconnecting-item shortcuts as greedyParallel, with the same
	// bit-identical reduction.
	clones := make([]*Engine, workers)
	for round := 0; round < f; round++ {
		for i := range verdicts {
			verdicts[i] = verdict{}
		}
		var nextCand, roundBest, minDisc atomic.Int64
		minDisc.Store(int64(items))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var c *Engine // fetched only if this worker gets a candidate
				for {
					v := int(nextCand.Add(1)) - 1
					if v >= items {
						return
					}
					if chosen.Has(v) {
						continue
					}
					if minDisc.Load() < int64(v) {
						continue
					}
					if c == nil {
						if clones[w] == nil {
							clones[w] = e.Clone()
						}
						c = clones[w]
					}
					c.toggleItem(v, edges, true)
					if c.AliveCount() > 1 {
						limit := int(roundBest.Load()) - 1
						diam, above, connected := c.diameterAbove(limit)
						switch {
						case !connected:
							verdicts[v] = verdict{disc: true, measured: true}
							casMin(&minDisc, int64(v))
						case above:
							verdicts[v] = verdict{diam: diam, measured: true}
							casMax(&roundBest, int64(diam))
						default:
							verdicts[v] = verdict{diam: -1, measured: true}
						}
					}
					c.toggleItem(v, edges, false)
				}
			}(w)
		}
		wg.Wait()
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := 0; v < items; v++ {
			if chosen.Has(v) {
				continue
			}
			res.Evaluated++
			cand := verdicts[v]
			if !cand.measured {
				continue
			}
			if cand.disc && !bestDisc {
				bestV, bestDiam, bestDisc = v, cand.diam, true
			} else if !cand.disc && !bestDisc && cand.diam > bestDiam {
				bestV, bestDiam = v, cand.diam
			}
		}
		if bestV == -1 {
			break
		}
		chosen.Add(bestV)
		e.toggleItem(bestV, edges, true)
		for _, c := range clones {
			if c != nil {
				c.toggleItem(bestV, edges, true)
			}
		}
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstNodeFaults = e.faults.Clone()
				res.WorstEdgeFaults = e.EdgeFaults()
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstNodeFaults = e.faults.Clone()
			res.WorstEdgeFaults = e.EdgeFaults()
		}
	}
}

// legacyExhaustiveParallel partitions the enumeration by first element
// modulo workers over the rebuild-per-set path. Kept for Survivors that
// cannot enumerate their routes; ties may report a different witness
// fault set than the sequential search.
func legacyExhaustiveParallel(s Survivor, f, workers int) Result {
	n := s.Graph().N()
	results := make([]Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := Result{WorstFaults: graph.NewBitset(n)}
			faults := graph.NewBitset(n)
			if w == 0 {
				evalOne(s, faults, &res)
			}
			var rec func(start, left int)
			rec = func(start, left int) {
				if left <= 0 {
					return
				}
				for v := start; v < n; v++ {
					faults.Add(v)
					evalOne(s, faults, &res)
					rec(v+1, left-1)
					faults.Remove(v)
				}
			}
			for first := w; first < n; first += workers {
				faults.Add(first)
				evalOne(s, faults, &res)
				rec(first+1, f-1)
				faults.Remove(first)
			}
			results[w] = res
		}(w)
	}
	wg.Wait()
	merged := Result{WorstFaults: graph.NewBitset(n)}
	for _, r := range results {
		merged.Evaluated += r.Evaluated
		if r.Disconnected && !merged.Disconnected {
			merged.Disconnected = true
			merged.WorstFaults = r.WorstFaults
		}
		if !merged.Disconnected && !r.Disconnected && r.MaxDiameter > merged.MaxDiameter {
			merged.MaxDiameter = r.MaxDiameter
			merged.WorstFaults = r.WorstFaults
		}
	}
	return merged
}

// ConcentratorAdversary evaluates fault sets drawn from a designated
// node set (typically a routing's concentrator M or its neighborhoods):
// the structurally critical nodes. It enumerates every subset of the
// target set of size at most f — usually far cheaper than full
// enumeration — and folds in the all-targets prefix sets. This is the
// adversary the paper's proofs defend against: faults concentrated on
// the concentrator. RouteSources are evaluated incrementally; each
// probe toggles one target in the engine.
func ConcentratorAdversary(s Survivor, f int, targets []int) Result {
	if eng := engineFor(s); eng != nil {
		res := Result{WorstFaults: graph.NewBitset(eng.N())}
		eng.fold(&res)
		var rec func(start, left int)
		rec = func(start, left int) {
			if left == 0 {
				return
			}
			for i := start; i < len(targets); i++ {
				eng.AddFault(targets[i])
				eng.fold(&res)
				rec(i+1, left-1)
				eng.RemoveFault(targets[i])
			}
		}
		rec(0, f)
		return res
	}
	n := s.Graph().N()
	res := Result{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	evalOne(s, faults, &res)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			faults.Add(targets[i])
			evalOne(s, faults, &res)
			rec(i+1, left-1)
			faults.Remove(targets[i])
		}
	}
	rec(0, f)
	return res
}
