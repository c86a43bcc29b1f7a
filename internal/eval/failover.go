package eval

import (
	"fmt"
	"math/rand"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file is the packet-level adversary against static-failover
// tables. Unlike the surviving-route-graph searches in the rest of the
// package — which ask whether *some* route of a pair survives — the
// link-cut adversary evaluates how the tables actually forward: every
// ordered pair is walked hop by hop through
// FailoverTables.WalkUnderFaults under a candidate cut set, and the
// outcome counts (delivered / blackhole / loop) are the objective. This
// is the experiment of Chiesa et al.'s static-failover model: an
// adversary that cuts wires (never kills switches) and wants to disrupt
// as many source-destination pairs as possible within a budget.
//
// Search modes mirror Config: Exhaustive enumerates every cut set of
// size 0..budget over the graph's links in lexicographic order — exact
// but binomial, use for small graphs or budgets; the default Sampled
// mode draws random cut sets of the full budget and adds two
// deterministic heuristics: a greedy adversary growing the cut one
// worst link at a time (enabled by cfg.Greedy), and a concentrator
// probe enumerating cut subsets of the links incident to the node
// holding the most table entries — the static-failover analogue of the
// paper's concentrator, where cutting a few adjacent wires severs many
// routes at once.

// CutStats counts walk outcomes over all table pairs under one fault
// set. Skipped stays zero under pure link cuts; it only appears under
// mixed faults, when a pair's own endpoint is failed.
type CutStats struct {
	Pairs     int // ordered pairs with table entries
	Delivered int
	Blackhole int // walk stuck at a node with no live entry
	Loop      int // walk revisited a node (cycles forever)
	Skipped   int // pair not walked: its src or dst node is failed
}

// Disrupted returns the pairs whose packets the tables mishandled.
// Skipped pairs are excluded: a pair whose endpoint is dead has no
// packet to misroute, so killing endpoints earns the adversary nothing.
func (s CutStats) Disrupted() int { return s.Blackhole + s.Loop }

// String renders the stats compactly.
func (s CutStats) String() string {
	if s.Skipped > 0 {
		return fmt.Sprintf("%d/%d delivered (%d blackhole, %d loop, %d skipped)",
			s.Delivered, s.Pairs, s.Blackhole, s.Loop, s.Skipped)
	}
	return fmt.Sprintf("%d/%d delivered (%d blackhole, %d loop)", s.Delivered, s.Pairs, s.Blackhole, s.Loop)
}

// CutResult reports the worst link-cut set found against a table set.
type CutResult struct {
	Worst     []routing.EdgeFault // cut set maximizing disrupted pairs, normalized and sorted
	Stats     CutStats            // outcomes under Worst
	Evaluated int                 // number of cut sets evaluated
}

// String renders the result compactly.
func (r CutResult) String() string {
	return fmt.Sprintf("worst cut %v: %v (%d sets)", r.Worst, r.Stats, r.Evaluated)
}

// EvaluateCuts walks every table pair under the given link cuts and
// returns the outcome counts. It is the single-set evaluation that the
// adversary searches over, exported for experiments and the CLI.
func EvaluateCuts(t *routing.FailoverTables, cuts []routing.EdgeFault) CutStats {
	return walkAllPairs(t, routing.FaultSetOf(t.N(), nil, cuts))
}

// walkAllPairs walks every ordered pair with table entries under faults.
func walkAllPairs(t *routing.FailoverTables, faults *routing.FaultSet) CutStats {
	var s CutStats
	for _, p := range t.Pairs() {
		s.Pairs++
		switch t.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome {
		case routing.Delivered:
			s.Delivered++
		case routing.Blackhole:
			s.Blackhole++
		default:
			s.Loop++
		}
	}
	return s
}

// walkAllPairsMixed walks every pair with table entries under a mixed
// fault set. Pairs whose source or destination node is failed are not
// walked and count as Skipped; the rest go through WalkUnderFaults
// exactly as walkAllPairs does. This is the single-set oracle behind
// WorstMixedFaultsLegacy, mirrored bit for bit by the WalkEngine.
func walkAllPairsMixed(t *routing.FailoverTables, faults *routing.FaultSet) CutStats {
	var s CutStats
	for _, p := range t.Pairs() {
		s.Pairs++
		if faults.NodeFaulty(int(p[0])) || faults.NodeFaulty(int(p[1])) {
			s.Skipped++
			continue
		}
		switch t.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome {
		case routing.Delivered:
			s.Delivered++
		case routing.Blackhole:
			s.Blackhole++
		default:
			s.Loop++
		}
	}
	return s
}

// cutWorse reports whether a disrupts strictly more pairs than b, the
// adversary's objective. Ties keep the incumbent, so with deterministic
// enumeration order the reported worst set is deterministic too.
func cutWorse(a, b CutStats) bool { return a.Disrupted() > b.Disrupted() }

// isWorse applies a custom strict-improvement comparison, defaulting to
// cutWorse when worse is nil — the hook the weighted mixed adversary
// threads its λ objective through.
func isWorse(worse func(a, b CutStats) bool, a, b CutStats) bool {
	if worse == nil {
		return cutWorse(a, b)
	}
	return worse(a, b)
}

// worseForWeight builds the comparator for Config.SkippedWeight: fault
// sets are ranked by disrupted + λ·skipped, still a strict improvement
// test so ties keep the incumbent. λ == 0 returns nil, leaving every
// comparison on the plain cutWorse path — results stay bit for bit
// (and reflect.DeepEqual-comparable) with the λ-free searches.
func worseForWeight(lambda float64) func(a, b CutStats) bool {
	if lambda == 0 {
		return nil
	}
	return func(a, b CutStats) bool {
		return float64(a.Disrupted())+lambda*float64(a.Skipped) >
			float64(b.Disrupted())+lambda*float64(b.Skipped)
	}
}

// consider folds one evaluated cut set into the running result.
func (r *CutResult) consider(cuts []routing.EdgeFault, s CutStats) {
	r.Evaluated++
	if cutWorse(s, r.Stats) {
		r.Stats = s
		r.Worst = sortedEdgeFaults(cuts)
	}
}

// WorstLinkCutsLegacy is the reference implementation of the link-cut
// adversary: every probed cut set re-walks all pairs from scratch via
// walkAllPairs. WorstLinkCuts now runs the same search through the
// incremental WalkEngine and is bit-for-bit equivalent (enumeration
// orders, tie-breaking and witness included); the legacy path is kept
// as the oracle for the equivalence tests, the fuzz target and the CI
// bench-ratio gate.
func WorstLinkCutsLegacy(t *routing.FailoverTables, g *graph.Graph, budget int, cfg Config) CutResult {
	if budget < 0 {
		budget = 0
	}
	edges := g.Edges()
	if budget > len(edges) {
		budget = len(edges)
	}
	faults := routing.NewFaultSet(t.N())
	// The empty cut set seeds the incumbent unconditionally; consider()
	// only replaces it on strictly more disruption.
	res := CutResult{Worst: []routing.EdgeFault{}, Stats: walkAllPairs(t, faults), Evaluated: 1}
	if cfg.Mode == Exhaustive {
		exhaustiveCuts(t, faults, edges, budget, &res)
		return res
	}
	sampledCuts(t, g, faults, edges, budget, cfg, &res)
	return res
}

// exhaustiveCuts enumerates every cut set of size 1..budget in
// lexicographic preorder over the edge list, mutating one shared fault
// set one link per step (the FaultSet analogue of the engine's
// single-toggle enumeration).
func exhaustiveCuts(t *routing.FailoverTables, faults *routing.FaultSet, edges [][2]int, budget int, res *CutResult) {
	var cur []routing.EdgeFault
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(edges); i++ {
			e := routing.EdgeFault{U: edges[i][0], V: edges[i][1]}
			faults.FailLink(e.U, e.V)
			cur = append(cur, e)
			res.consider(cur, walkAllPairs(t, faults))
			rec(i+1, left-1)
			faults.RepairLink(e.U, e.V)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, budget)
}

// sampledCuts draws cfg.Samples random cut sets of size exactly budget,
// runs the concentrator probe, and with cfg.Greedy grows a greedy cut.
// All randomness comes from cfg.Seed, so results are deterministic.
func sampledCuts(t *routing.FailoverTables, g *graph.Graph, faults *routing.FaultSet, edges [][2]int, budget int, cfg Config, res *CutResult) {
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := 0; i < samples && budget > 0; i++ {
		ids := graph.NewBitset(len(edges))
		for ids.Count() < budget {
			ids.Add(rng.Intn(len(edges)))
		}
		cur := make([]routing.EdgeFault, 0, budget)
		for _, id := range ids.Elements() {
			e := routing.EdgeFault{U: edges[id][0], V: edges[id][1]}
			cur = append(cur, e)
			faults.FailLink(e.U, e.V)
		}
		res.consider(cur, walkAllPairs(t, faults))
		for _, e := range cur {
			faults.RepairLink(e.U, e.V)
		}
	}
	concentratorCuts(t, g, faults, budget, res)
	if cfg.Greedy {
		greedyCuts(t, faults, edges, budget, res)
	}
}

// concentratorCuts enumerates every cut subset of size 1..budget of the
// links incident to the node holding the most table entries — the node
// whose wires carry the most forwarding decisions, hence the natural
// first target (ties break to the lowest node id).
func concentratorCuts(t *routing.FailoverTables, g *graph.Graph, faults *routing.FaultSet, budget int, res *CutResult) {
	conc := t.Concentrator()
	if conc < 0 {
		return
	}
	targets := make([]routing.EdgeFault, 0, g.Degree(conc))
	g.EachNeighbor(conc, func(w int) bool {
		targets = append(targets, routing.EdgeFault{U: conc, V: w}.Normalize())
		return true
	})
	var cur []routing.EdgeFault
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(targets); i++ {
			faults.FailLink(targets[i].U, targets[i].V)
			cur = append(cur, targets[i])
			res.consider(cur, walkAllPairs(t, faults))
			rec(i+1, left-1)
			faults.RepairLink(targets[i].U, targets[i].V)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, budget)
}

// greedyCuts grows a cut set one link at a time, each round keeping the
// link whose addition disrupts the most pairs (ties to the lowest edge
// index). The shared fault set ends restored to empty.
func greedyCuts(t *routing.FailoverTables, faults *routing.FaultSet, edges [][2]int, budget int, res *CutResult) {
	chosen := graph.NewBitset(len(edges))
	var cur []routing.EdgeFault
	for round := 0; round < budget; round++ {
		bestI, bestStats := -1, CutStats{}
		for i := 0; i < len(edges); i++ {
			if chosen.Has(i) {
				continue
			}
			e := routing.EdgeFault{U: edges[i][0], V: edges[i][1]}
			faults.FailLink(e.U, e.V)
			res.Evaluated++
			s := walkAllPairs(t, faults)
			if bestI == -1 || cutWorse(s, bestStats) {
				bestI, bestStats = i, s
			}
			faults.RepairLink(e.U, e.V)
		}
		if bestI == -1 {
			break
		}
		chosen.Add(bestI)
		e := routing.EdgeFault{U: edges[bestI][0], V: edges[bestI][1]}
		faults.FailLink(e.U, e.V)
		cur = append(cur, e)
		if cutWorse(bestStats, res.Stats) {
			res.Stats = bestStats
			res.Worst = sortedEdgeFaults(cur)
		}
	}
	for _, e := range cur {
		faults.RepairLink(e.U, e.V)
	}
}
