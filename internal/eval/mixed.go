package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// This file is the mixed-fault (node ∪ edge) search surface. The paper
// reduces edge faults to node faults ("assuming that one of the
// endpoints of the faulty edge is a faulty node", Section 1); here the
// literal model is searched directly: a route dies iff it contains a
// faulty node or traverses a faulty edge. All searches enumerate over a
// single item universe of n nodes followed by the graph's m edges in
// lexicographic order, so consecutive fault sets differ by one item and
// the incremental Engine evaluates each set in O(routes touching the
// toggled item) instead of an O(n²) rebuild.

// MixedSurvivor is a Survivor that can also materialize the literal
// mixed surviving graph; *routing.Routing and *routing.MultiRouting
// both implement it. When the value additionally implements RouteSource
// the searches below run on the incremental Engine, with this legacy
// rebuild path retained as the bit-for-bit reference.
type MixedSurvivor interface {
	Survivor
	SurvivingGraphMixed(nodeFaults *graph.Bitset, edgeFaults []routing.EdgeFault) *graph.Digraph
}

// MixedResult reports the worst case found over mixed fault sets.
type MixedResult struct {
	MaxDiameter     int                 // largest surviving diameter observed
	Disconnected    bool                // some mixed set disconnected the surviving graph
	WorstNodeFaults *graph.Bitset       // node part of a worst-case witness
	WorstEdgeFaults []routing.EdgeFault // edge part, normalized and sorted
	Evaluated       int                 // number of mixed fault sets evaluated
}

// String renders a mixed result compactly.
func (r MixedResult) String() string {
	if r.Disconnected {
		return fmt.Sprintf("disconnected (worst F=%v E=%v, %d sets)", r.WorstNodeFaults, r.WorstEdgeFaults, r.Evaluated)
	}
	return fmt.Sprintf("max diameter %d (worst F=%v E=%v, %d sets)", r.MaxDiameter, r.WorstNodeFaults, r.WorstEdgeFaults, r.Evaluated)
}

// sortedEdgeFaults returns a normalized, lexicographically sorted copy,
// the canonical witness form shared by the engine and legacy paths.
func sortedEdgeFaults(edges []routing.EdgeFault) []routing.EdgeFault {
	out := make([]routing.EdgeFault, len(edges))
	for i, e := range edges {
		out[i] = e.Normalize()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// evalOneMixed evaluates one mixed fault set through the legacy
// rebuild path, folding it into res with the semantics of evalOne.
// Engine.foldMixed is the incremental equivalent; they must agree bit
// for bit.
func evalOneMixed(s MixedSurvivor, nf *graph.Bitset, edges []routing.EdgeFault, res *MixedResult) {
	res.Evaluated++
	d := s.SurvivingGraphMixed(nf, edges)
	if d.EnabledCount() <= 1 {
		return
	}
	diam, ok := d.Diameter()
	if !ok {
		if !res.Disconnected {
			res.Disconnected = true
			res.WorstNodeFaults = nf.Clone()
			res.WorstEdgeFaults = sortedEdgeFaults(edges)
		}
		return
	}
	if !res.Disconnected && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstNodeFaults = nf.Clone()
		res.WorstEdgeFaults = sortedEdgeFaults(edges)
	}
}

// foldMixed evaluates the engine's current mixed fault set into res
// with exactly the semantics of evalOneMixed.
func (e *Engine) foldMixed(res *MixedResult) { e.foldMixedW(res, 1) }

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

// MaxDiameterMixed searches mixed fault sets — any combination of node
// and edge faults of total size at most f — for the worst surviving
// diameter of the literal mixed model. Exhaustive mode enumerates every
// subset of the n+m item universe of size 0..f; Sampled mode draws
// uniform random mixed sets of size f (plus the empty set) and, with
// cfg.Greedy, grows an adversarial mixed set one item at a time.
func MaxDiameterMixed(s MixedSurvivor, f int, cfg Config) MixedResult {
	switch cfg.Mode {
	case Exhaustive:
		if cfg.Pruned {
			if res, ok := exhaustiveMixedPruned(s, f, 1, cfg.Bounded); ok {
				return res
			}
		}
		if cfg.Bounded {
			if eng := engineFor(s); eng != nil {
				return eng.boundedSearch(s.Graph().Edges(), f, 1)
			}
		}
		return exhaustiveMixed(s, f)
	default:
		return sampledMixed(s, f, cfg)
	}
}

// exhaustiveMixed enumerates all mixed fault sets of size 0..f in
// preorder over the item universe (nodes first, then edges).
func exhaustiveMixed(s MixedSurvivor, f int) MixedResult {
	if f < 0 {
		f = 0
	}
	n := s.Graph().N()
	edges := s.Graph().Edges()
	if eng := engineFor(s); eng != nil {
		res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
		eng.foldMixed(&res) // empty set
		eng.descendMixed(0, f, edges, &res)
		return res
	}
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	nf := graph.NewBitset(n)
	var cur []routing.EdgeFault
	evalOneMixed(s, nf, cur, &res) // empty set
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for v := start; v < n+len(edges); v++ {
			if v < n {
				nf.Add(v)
			} else {
				ed := edges[v-n]
				cur = append(cur, routing.EdgeFault{U: ed[0], V: ed[1]})
			}
			evalOneMixed(s, nf, cur, &res)
			rec(v+1, left-1)
			if v < n {
				nf.Remove(v)
			} else {
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(0, f)
	return res
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

// toggleItem adds or removes universe item v (node for v < n, edge
// otherwise).
func (e *Engine) toggleItem(v int, edges [][2]int, add bool) {
	switch {
	case v < e.n && add:
		e.AddFault(v)
	case v < e.n:
		e.RemoveFault(v)
	case add:
		e.AddEdgeFault(edges[v-e.n][0], edges[v-e.n][1])
	default:
		e.RemoveEdgeFault(edges[v-e.n][0], edges[v-e.n][1])
	}
}

// drawMixedFaults draws one uniform mixed fault set of size exactly f
// over the n+m item universe (f <= n+m), returning the node part as a
// bitset and the edge part sorted by edge id.
func drawMixedFaults(rng *rand.Rand, n int, edges [][2]int, f int) (*graph.Bitset, []routing.EdgeFault) {
	items := graph.NewBitset(n + len(edges))
	for items.Count() < f {
		items.Add(rng.Intn(n + len(edges)))
	}
	nf := graph.NewBitset(n)
	var ef []routing.EdgeFault
	for _, it := range items.Elements() {
		if it < n {
			nf.Add(it)
		} else {
			ef = append(ef, routing.EdgeFault{U: edges[it-n][0], V: edges[it-n][1]})
		}
	}
	return nf, ef
}

// sampledMixed draws random mixed sets of size exactly f (clamped to
// the universe size) and optionally runs the greedy mixed adversary.
func sampledMixed(s MixedSurvivor, f int, cfg Config) MixedResult {
	return sampledMixedWith(s, engineFor(s), f, cfg)
}

// sampledMixedWith is sampledMixed over a caller-provided engine (nil
// forces the legacy path), so ProfileMixed can compile the engine once
// and reuse it across fault counts. The engine must be fault-free on
// entry and is left fault-free on return.
func sampledMixedWith(s MixedSurvivor, eng *Engine, f int, cfg Config) MixedResult {
	n := s.Graph().N()
	edges := s.Graph().Edges()
	if f > n+len(edges) {
		f = n + len(edges)
	}
	if f < 0 {
		f = 0
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	if eng != nil {
		eng.foldMixed(&res) // empty set
	} else {
		evalOneMixed(s, graph.NewBitset(n), nil, &res)
	}
	for i := 0; i < samples; i++ {
		nf, ef := drawMixedFaults(rng, n, edges, f)
		if eng != nil {
			eng.SetMixedFaults(nf, ef)
			eng.foldMixed(&res)
		} else {
			evalOneMixed(s, nf, ef, &res)
		}
	}
	if eng != nil {
		eng.Reset()
	}
	if cfg.Greedy {
		if eng != nil {
			eng.greedyMixed(f, edges, true, &res)
			eng.Reset()
		} else {
			greedyMixed(s, f, edges, true, &res)
		}
	}
	return res
}

// greedyMixed grows a mixed fault set one item at a time through the
// legacy rebuild path, at each step keeping the item whose addition
// maximizes the surviving diameter (preferring disconnection, breaking
// ties toward the lowest item). With nodesToo false only edge items are
// candidates — the pure edge-fault adversary.
func greedyMixed(s MixedSurvivor, f int, edges [][2]int, nodesToo bool, res *MixedResult) {
	n := s.Graph().N()
	chosen := graph.NewBitset(n + len(edges))
	nf := graph.NewBitset(n)
	var ef []routing.EdgeFault
	first := 0
	if !nodesToo {
		first = n
	}
	for round := 0; round < f; round++ {
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := first; v < n+len(edges); v++ {
			if chosen.Has(v) {
				continue
			}
			if v < n {
				nf.Add(v)
			} else {
				ef = append(ef, routing.EdgeFault{U: edges[v-n][0], V: edges[v-n][1]})
			}
			res.Evaluated++
			d := s.SurvivingGraphMixed(nf, ef)
			if d.EnabledCount() > 1 {
				diam, ok := d.Diameter()
				disc := !ok
				if disc && !bestDisc {
					bestV, bestDiam, bestDisc = v, diam, true
				} else if !disc && !bestDisc && diam > bestDiam {
					bestV, bestDiam = v, diam
				}
			}
			if v < n {
				nf.Remove(v)
			} else {
				ef = ef[:len(ef)-1]
			}
		}
		if bestV == -1 {
			break
		}
		chosen.Add(bestV)
		if bestV < n {
			nf.Add(bestV)
		} else {
			ef = append(ef, routing.EdgeFault{U: edges[bestV-n][0], V: edges[bestV-n][1]})
		}
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstNodeFaults = nf.Clone()
				res.WorstEdgeFaults = sortedEdgeFaults(ef)
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstNodeFaults = nf.Clone()
			res.WorstEdgeFaults = sortedEdgeFaults(ef)
		}
	}
}

// greedyMixed is the engine-backed greedy mixed adversary: each probe
// is one incremental toggle pair. The engine must start fault-free; it
// ends holding the grown mixed set.
func (e *Engine) greedyMixed(f int, edges [][2]int, nodesToo bool, res *MixedResult) {
	chosen := graph.NewBitset(e.n + len(edges))
	first := 0
	if !nodesToo {
		first = e.n
	}
	for round := 0; round < f; round++ {
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := first; v < e.n+len(edges); v++ {
			if chosen.Has(v) {
				continue
			}
			e.toggleItem(v, edges, true)
			res.Evaluated++
			if e.AliveCount() > 1 {
				diam, ok := e.Diameter()
				disc := !ok
				if disc && !bestDisc {
					bestV, bestDiam, bestDisc = v, diam, true
				} else if !disc && !bestDisc && diam > bestDiam {
					bestV, bestDiam = v, diam
				}
			}
			e.toggleItem(v, edges, false)
		}
		if bestV == -1 {
			break
		}
		chosen.Add(bestV)
		e.toggleItem(bestV, edges, true)
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

// GreedyEdgeAdversary grows a pure edge-fault set of size at most f,
// each round failing the link that maximizes the surviving diameter
// (preferring disconnection). It is the link-failure counterpart of the
// greedy node adversary: the static-failover worst case where an
// adversary cuts wires but never kills switches.
func GreedyEdgeAdversary(s MixedSurvivor, f int) MixedResult {
	n := s.Graph().N()
	edges := s.Graph().Edges()
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	if eng := engineFor(s); eng != nil {
		eng.foldMixed(&res)
		eng.greedyMixed(f, edges, false, &res)
		return res
	}
	evalOneMixed(s, graph.NewBitset(n), nil, &res)
	greedyMixed(s, f, edges, false, &res)
	return res
}

// ProfileMixed reports, for each total mixed fault-set size 0..f — the
// combined count of failed nodes and cut links — the worst surviving
// diameter found (-1 encodes disconnection). It is the mixed-universe
// counterpart of Profile, sharing cfg semantics with MaxDiameterMixed
// but evaluating each size separately; like Profile, its exhaustive
// engine path is always the parallel branch-and-bound search.
func ProfileMixed(s MixedSurvivor, f int, cfg Config) []int {
	out := make([]int, f+1)
	eng := engineFor(s) // compiled once, reused across fault counts
	edges := s.Graph().Edges()
	clones := make([]*Engine, runtime.GOMAXPROCS(0))
	for k := 0; k <= f; k++ {
		var res MixedResult
		switch {
		case cfg.Mode == Exhaustive && eng != nil:
			res = eng.profileSearch(edges, k, clones)
		case cfg.Mode == Exhaustive:
			res = exhaustiveExactMixed(s, k)
		default:
			res = sampledMixedWith(s, eng, k, cfg)
		}
		if res.Disconnected {
			out[k] = -1
		} else {
			out[k] = res.MaxDiameter
		}
	}
	return out
}

// exhaustiveExactMixed enumerates mixed fault sets of total size exactly
// k (legacy path).
func exhaustiveExactMixed(s MixedSurvivor, k int) MixedResult {
	n := s.Graph().N()
	edges := s.Graph().Edges()
	items := n + len(edges)
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	nf := graph.NewBitset(n)
	var cur []routing.EdgeFault
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			evalOneMixed(s, nf, cur, &res)
			return
		}
		if items-start < left {
			return
		}
		for v := start; v < items; v++ {
			if v < n {
				nf.Add(v)
			} else {
				ed := edges[v-n]
				cur = append(cur, routing.EdgeFault{U: ed[0], V: ed[1]})
			}
			rec(v+1, left-1)
			if v < n {
				nf.Remove(v)
			} else {
				cur = cur[:len(cur)-1]
			}
		}
	}
	rec(0, k)
	return res
}

// CheckToleranceMixed verifies a mixed (d, f)-tolerance claim: it
// returns nil when every evaluated mixed fault set of total size at
// most f — failed nodes plus cut links combined — leaves the surviving
// graph with diameter at most d. In Exhaustive mode this is a proof
// over the instance; in Sampled mode it is a statistical check. The
// engine path stops at the first violation in enumeration order, like
// CheckTolerance.
func CheckToleranceMixed(s MixedSurvivor, d, f int, cfg Config) error {
	if cfg.Mode == Exhaustive && !cfg.Pruned {
		if eng := engineFor(s); eng != nil {
			return eng.checkToleranceMixed(d, f, s.Graph().Edges())
		}
	}
	res := MaxDiameterMixed(s, f, cfg)
	if res.Disconnected {
		return fmt.Errorf("eval: mixed fault set nodes %v links %v disconnects the surviving graph (claimed (%d,%d)-tolerant)", res.WorstNodeFaults, res.WorstEdgeFaults, d, f)
	}
	if res.MaxDiameter > d {
		return fmt.Errorf("eval: mixed fault set nodes %v links %v gives diameter %d (claimed (%d,%d)-tolerant)", res.WorstNodeFaults, res.WorstEdgeFaults, res.MaxDiameter, d, f)
	}
	return nil
}

// checkToleranceMixed walks the exhaustive mixed enumeration with the
// bounded diameter scan, returning the first (d, f)-violation found.
func (e *Engine) checkToleranceMixed(d, f int, edges [][2]int) error {
	if f < 0 {
		f = 0
	}
	check := func() error {
		if e.AliveCount() <= 1 || e.DiameterAtMost(d) {
			return nil
		}
		diam, ok := e.Diameter()
		if !ok {
			return fmt.Errorf("eval: mixed fault set nodes %v links %v disconnects the surviving graph (claimed (%d,%d)-tolerant)", e.faults, e.EdgeFaults(), d, f)
		}
		return fmt.Errorf("eval: mixed fault set nodes %v links %v gives diameter %d (claimed (%d,%d)-tolerant)", e.faults, e.EdgeFaults(), diam, d, f)
	}
	if err := check(); err != nil {
		return err
	}
	items := e.n + len(edges)
	var rec func(start, left int) error
	rec = func(start, left int) error {
		if left == 0 {
			return nil
		}
		for v := start; v < items; v++ {
			e.toggleItem(v, edges, true)
			if err := check(); err != nil {
				return err
			}
			if err := rec(v+1, left-1); err != nil {
				return err
			}
			e.toggleItem(v, edges, false)
		}
		return nil
	}
	return rec(0, f)
}

// ConcentratorEdgeAdversary enumerates every subset of size at most f
// of the target links — typically the edges incident to a routing's
// concentrator, the structurally critical wires — and folds in the
// empty set. Targets are normalized and exact duplicates dropped;
// self-loops and non-edges are harmless no-op items. RouteSources are
// evaluated incrementally, one engine edge toggle per enumeration step.
func ConcentratorEdgeAdversary(s MixedSurvivor, f int, targets []routing.EdgeFault) MixedResult {
	n := s.Graph().N()
	seen := make(map[routing.EdgeFault]bool, len(targets))
	uniq := make([]routing.EdgeFault, 0, len(targets))
	for _, t := range targets {
		t = t.Normalize()
		if !seen[t] {
			seen[t] = true
			uniq = append(uniq, t)
		}
	}
	res := MixedResult{WorstNodeFaults: graph.NewBitset(n)}
	if eng := engineFor(s); eng != nil {
		eng.foldMixed(&res)
		var rec func(start, left int)
		rec = func(start, left int) {
			if left == 0 {
				return
			}
			for i := start; i < len(uniq); i++ {
				eng.AddEdgeFault(uniq[i].U, uniq[i].V)
				eng.foldMixed(&res)
				rec(i+1, left-1)
				eng.RemoveEdgeFault(uniq[i].U, uniq[i].V)
			}
		}
		rec(0, f)
		return res
	}
	nf := graph.NewBitset(n)
	var cur []routing.EdgeFault
	evalOneMixed(s, nf, cur, &res)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for i := start; i < len(uniq); i++ {
			cur = append(cur, uniq[i])
			evalOneMixed(s, nf, cur, &res)
			rec(i+1, left-1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0, f)
	return res
}
