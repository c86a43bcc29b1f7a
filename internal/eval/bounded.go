package eval

import (
	"sync"
	"sync/atomic"

	"ftroute/internal/graph"
)

// This file implements Config.Bounded and the exhaustive Profile path:
// branch-and-bound exhaustive adversary search. The plain searches
// compute the full diameter of every surviving graph; the bounded
// search threads a best-so-far score through the enumeration and
// evaluates each fault set with the pivot-pruned diameterAbove kernel
// instead, so sets that cannot beat the incumbent cost ~2 BFS rather
// than n.
//
// Every bounded search runs on one executor, bbSearch: the root (empty)
// set, then numbered work units stolen by workers on engine clones (the
// serial search is one worker on the caller's engine), merged in unit
// order. A unit is either the subtree of sets whose smallest item is a
// given item (exact-size or size-1..f walk) or a chunk of an orbit-
// pruned representative list. Three invariants make the results
// bit-identical to the plain search:
//
//   - The incumbent is a (score, unit) pair: a higher score wins and,
//     on a tie, the earlier unit wins. A set of unit u skips at the
//     incumbent score when that score came from an earlier unit, and at
//     score−1 otherwise. A tie can only own the first-in-order witness
//     when no earlier unit holds the score, so the first set achieving
//     the final maximum is always measured exactly under any parallel
//     interleaving, and the ordered merge keeps it.
//   - Disconnection freezes a result in the plain search while the
//     enumeration keeps counting. The bounded search skips the frozen
//     remainder outright — no toggles, no BFS — and counts Evaluated
//     combinatorially. An atomic earliest-disconnected-unit index turns
//     every later unit into a count-only no-op; earlier units still
//     run, because their own disconnection would win.
//   - A disconnected result also reports the largest diameter before
//     the disconnecting set. A unit that skipped a set under a score
//     borrowed from a unit after the disconnection may have missed that
//     prefix maximum, so such a run is replayed on one worker, where no
//     score is ever borrowed from a later unit.
//
// Profile mode drops the witness: every incumbent counts as earlier (so
// ties skip too) and the first disconnection stops every worker.
//
// Legacy Survivors without route enumeration ignore Bounded and take
// the plain path, as do the Sampled-mode searches (each sample is an
// independent SetFaults, so there is no enumeration tree to prune).

// incumbent is the shared best-so-far, packed as score<<32|(unitMask−unit)
// so one atomic max orders it: a higher score wins, then an earlier
// unit. The zero value is score 0 from a unit after every real one.
type incumbent struct{ v atomic.Int64 }

const unitMask = 1<<32 - 1

func (b *incumbent) raise(score, unit int) { casMax(&b.v, int64(score)<<32|int64(unitMask-unit)) }

// limit is the skip threshold for a set of unit u, and the unit the
// incumbent came from.
func (b *incumbent) limit(u int, tiesLose bool) (limit, from int) {
	p := b.v.Load()
	score, from := int(p>>32), unitMask-int(p&unitMask)
	if tiesLose || from < u {
		return score, from
	}
	return score - 1, from
}

// casMax raises a to at least v.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// casMin lowers a to at most v.
func casMin(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v >= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// countChoose is the binomial coefficient C(n, k) in exact integer
// arithmetic (the running product after step i is C(n-k+i, i), always
// integral). Enumerations large enough to overflow could never finish
// being walked, so overflow is unreachable in practice.
func countChoose(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
	}
	return c
}

// countSets counts the nonempty subsets of size at most left drawn from
// avail items — the number of fault sets in one enumeration subtree,
// used to reconstruct Evaluated when a frozen (disconnected) result
// skips the subtree without walking it.
func countSets(avail, left int) int {
	total := 0
	for s := 1; s <= left && s <= avail; s++ {
		total += countChoose(avail, s)
	}
	return total
}

// bbSearch is one branch-and-bound exhaustive search over the item
// universe of n nodes followed by edges (nil for node faults); the
// walk closures hold the universe.
type bbSearch struct {
	root    bool // the empty set is evaluated (as unit 0)
	units   int  // work units 1..units
	profile bool // witness-free: ties always skip, the first disconnection stops all
	// walk evaluates unit u's sets on c, which it restores; skip is the
	// number of sets in unit u.
	walk func(c *Engine, u int, res *MixedResult)
	skip func(u int) int

	best   incumbent
	disc   atomic.Int64 // earliest disconnecting unit
	borrow []int        // per unit: latest later unit whose score skipped one of its sets
}

// firstItemSearch enumerates fault sets of size 1..f (exact false, plus
// the empty set) or of size exactly f over the n+len(edges) item
// universe in preorder; unit u is the subtree of sets whose smallest
// item is u−1.
func firstItemSearch(n int, edges [][2]int, f int, exact bool) *bbSearch {
	items := n + len(edges)
	count := countSets
	if exact {
		count = countChoose
	}
	s := &bbSearch{root: !exact || f <= 0}
	if f > 0 {
		s.units = items
	}
	// descend walks the sets extending c's current set with left more
	// items from start..end−1, counting them once frozen.
	var descend func(c *Engine, u, start, end, left int, res *MixedResult)
	descend = func(c *Engine, u, start, end, left int, res *MixedResult) {
		for v := start; v < end; v++ {
			if res.Disconnected || s.frozen(u) {
				res.Evaluated += count(items-v, left) - count(items-end, left)
				return
			}
			c.toggleItem(v, edges, true)
			if !exact || left == 1 {
				s.fold(c, u, 1, res)
			}
			if left > 1 {
				descend(c, u, v+1, items, left-1, res)
			}
			c.toggleItem(v, edges, false)
		}
	}
	s.walk = func(c *Engine, u int, res *MixedResult) { descend(c, u, u-1, u, f, res) }
	s.skip = func(u int) int { return count(items-u+1, f) - count(items-u, f) }
	return s
}

// prunedSearch walks an orbit-pruned plan (the empty set first, then
// every representative weighted by its orbit size) in contiguous
// chunks, each replayed from the empty set with applyDiff.
func prunedSearch(plan *prunedReps, edges [][2]int, workers int) *bbSearch {
	reps := len(plan.sets)
	chunk := planChunk(reps, workers)
	s := &bbSearch{root: true, units: (reps + chunk - 1) / chunk}
	span := func(u int) (lo, hi int) { return (u - 1) * chunk, min(u*chunk, reps) }
	orbits := func(lo, hi int) (sets int) {
		for _, m := range plan.mults[lo:hi] {
			sets += m
		}
		return sets
	}
	s.walk = func(c *Engine, u int, res *MixedResult) {
		lo, hi := span(u)
		toggle := func(v int, add bool) { c.toggleItem(v, edges, add) }
		var cur []int
		for i := lo; i < hi; i++ {
			if res.Disconnected || s.frozen(u) {
				res.Evaluated += orbits(i, hi)
				break
			}
			cur = applyDiff(cur, plan.sets[i], toggle)
			s.fold(c, u, plan.mults[i], res)
		}
		for _, v := range cur {
			c.toggleItem(v, edges, false)
		}
	}
	s.skip = func(u int) int { return orbits(span(u)) }
	return s
}

// frozen reports whether unit u's remaining sets can only be counted:
// an earlier unit disconnected (or, in profile mode, any unit did).
func (s *bbSearch) frozen(u int) bool {
	d := s.disc.Load()
	return int64(u) > d || (s.profile && d <= int64(s.units))
}

// fold evaluates c's current set, standing for mult sets of unit u,
// into res against the incumbent.
func (s *bbSearch) fold(c *Engine, u, mult int, res *MixedResult) {
	res.Evaluated += mult
	if c.aliveCount <= 1 || res.Disconnected {
		return
	}
	limit, from := s.best.limit(u, s.profile)
	if limit <= res.MaxDiameter {
		limit, from = res.MaxDiameter, u
	}
	diam, above, connected := c.diameterAbove(limit)
	switch {
	case !connected:
		res.Disconnected = true
		s.witness(c, res)
		casMin(&s.disc, int64(u))
	case above:
		res.MaxDiameter = diam
		s.witness(c, res)
		s.best.raise(diam, u)
	case from > s.borrow[u]:
		s.borrow[u] = from
	}
}

// witness records c's current set as res's witness, outside profile
// mode.
func (s *bbSearch) witness(c *Engine, res *MixedResult) {
	if !s.profile {
		res.WorstNodeFaults = c.faults.Clone()
		res.WorstEdgeFaults = c.EdgeFaults()
	}
}

// exec runs the search on len(clones) workers and returns the ordered
// merge. Worker 0 runs on e; clones[w] for w > 0 are made before the
// workers start (e is not quiescent after) and kept, so callers running
// several searches reuse them. Every engine ends fault-free.
func (s *bbSearch) exec(e *Engine, clones []*Engine) MixedResult {
	clones = clones[:max(1, min(len(clones), s.units))]
	clones[0] = e
	for w, c := range clones {
		if c == nil {
			clones[w] = e.Clone()
		}
	}
	s.disc.Store(int64(s.units) + 1)
	s.borrow = make([]int, s.units+1)
	per := make([]MixedResult, s.units+1)
	per[0].WorstNodeFaults = graph.NewBitset(e.n)
	if s.root {
		s.fold(e, 0, 1, &per[0])
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1))
				if u > s.units {
					return
				}
				if s.frozen(u) {
					per[u].Evaluated = s.skip(u)
					continue
				}
				s.walk(clones[w], u, &per[u])
			}
		}()
	}
	wg.Wait()
	merged := per[0]
	for _, r := range per[1:] {
		mergeOrderedMixed(&merged, r)
	}
	if merged.Disconnected && !s.profile {
		d := int(s.disc.Load())
		for _, from := range s.borrow[:d+1] {
			if from > d {
				s.best.v.Store(0)
				return s.exec(e, clones[:1])
			}
		}
	}
	return merged
}

// boundedSearch is the exhaustive branch-and-bound search over fault
// sets of size 0..f of the n+len(edges) item universe on workers
// engines, bit-identical to the plain search.
func (e *Engine) boundedSearch(edges [][2]int, f, workers int) MixedResult {
	return firstItemSearch(e.n, edges, max(f, 0), false).exec(e, make([]*Engine, workers))
}

// profileSearch is the witness-free exhaustive search over fault sets
// of size exactly k, reusing the worker clones across calls.
func (e *Engine) profileSearch(edges [][2]int, k int, clones []*Engine) MixedResult {
	s := firstItemSearch(e.n, edges, k, true)
	s.profile = true
	return s.exec(e, clones)
}

// node narrows a node-universe search result to a Result.
func (r MixedResult) node() Result {
	return Result{MaxDiameter: r.MaxDiameter, Disconnected: r.Disconnected, WorstFaults: r.WorstNodeFaults, Evaluated: r.Evaluated}
}
