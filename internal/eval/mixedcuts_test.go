package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"ftroute/internal/routing"
)

// legacyMixedOutcomes is the per-pair mixed-fault oracle: Skipped when
// an endpoint is failed, otherwise a fresh WalkUnderFaults walk.
func legacyMixedOutcomes(ft *routing.FailoverTables, nodes []int, cuts []routing.EdgeFault) ([]routing.Outcome, CutStats) {
	faults := routing.FaultSetOf(ft.N(), nodes, cuts)
	outs := make([]routing.Outcome, len(ft.Pairs()))
	var s CutStats
	for i, p := range ft.Pairs() {
		s.Pairs++
		if faults.NodeFaulty(int(p[0])) || faults.NodeFaulty(int(p[1])) {
			outs[i] = routing.Skipped
			s.Skipped++
			continue
		}
		o := ft.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome
		outs[i] = o
		switch o {
		case routing.Delivered:
			s.Delivered++
		case routing.Blackhole:
			s.Blackhole++
		default:
			s.Loop++
		}
	}
	return outs, s
}

// checkEngineMixedState asserts the engine's cached per-pair outcomes
// and running stats match the mixed oracle under the same fault set.
func checkEngineMixedState(t *testing.T, name string, we *WalkEngine, ft *routing.FailoverTables, nodes []int, cuts []routing.EdgeFault) {
	t.Helper()
	wantOuts, wantStats := legacyMixedOutcomes(ft, nodes, cuts)
	if got := we.Stats(); got != wantStats {
		t.Fatalf("%s under F=%v E=%v: engine stats %v, legacy %v", name, nodes, cuts, got, wantStats)
	}
	for i := range wantOuts {
		if got := we.Outcome(i); got != wantOuts[i] {
			src, dst := we.Pair(i)
			t.Fatalf("%s under F=%v E=%v: pair (%d,%d) engine %v, legacy %v", name, nodes, cuts, src, dst, got, wantOuts[i])
		}
	}
}

// TestWalkEngineMixedTogglesMatchLegacy drives every instance through a
// deterministic interleaved node-fault/link-cut toggle sequence and
// checks the cached outcomes against the mixed oracle after every
// toggle, then exercises Clone independence, SetMixedFaults and Reset
// with node faults in play.
func TestWalkEngineMixedTogglesMatchLegacy(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		we := NewWalkEngine(it.ft, it.g)
		edges := it.g.Edges()
		items := it.g.N() + len(edges)
		rng := rand.New(rand.NewSource(13))
		liveNode := map[int]bool{}
		liveEdge := map[int]bool{}
		state := func() ([]int, []routing.EdgeFault) {
			var nodes []int
			for v := 0; v < it.g.N(); v++ {
				if liveNode[v] {
					nodes = append(nodes, v)
				}
			}
			var cuts []routing.EdgeFault
			for i, e := range edges {
				if liveEdge[i] {
					cuts = append(cuts, routing.EdgeFault{U: e[0], V: e[1]})
				}
			}
			return nodes, cuts
		}
		for step := 0; step < 60; step++ {
			v := rng.Intn(items)
			if v < it.g.N() {
				if liveNode[v] {
					we.RemoveNodeFault(v)
					delete(liveNode, v)
				} else {
					we.AddNodeFault(v)
					liveNode[v] = true
				}
			} else {
				id := v - it.g.N()
				e := edges[id]
				if liveEdge[id] {
					we.RemoveLinkCut(e[0], e[1])
					delete(liveEdge, id)
				} else {
					we.AddLinkCut(e[0], e[1])
					liveEdge[id] = true
				}
			}
			nodes, cuts := state()
			checkEngineMixedState(t, it.name, we, it.ft, nodes, cuts)
		}
		// Clone independence with node faults in the cache.
		c := we.Clone()
		before := we.Stats()
		c.Reset()
		if we.Stats() != before {
			t.Fatalf("%s: resetting a clone mutated the original", it.name)
		}
		checkEngineMixedState(t, it.name+" clone", c, it.ft, nil, nil)
		// SetMixedFaults replaces both universes by symmetric difference.
		target := []int{0, it.g.N() - 1}
		targetCuts := []routing.EdgeFault{{U: edges[0][0], V: edges[0][1]}}
		we.SetMixedFaults(target, targetCuts)
		checkEngineMixedState(t, it.name+" setmixed", we, it.ft, target, targetCuts)
		if !we.HasNodeFault(0) {
			t.Fatalf("%s: HasNodeFault disagrees with SetMixedFaults", it.name)
		}
		if got := we.NodeFaultList(); !reflect.DeepEqual(got, target) {
			t.Fatalf("%s: NodeFaultList %v, want %v", it.name, got, target)
		}
		we.Reset()
		checkEngineMixedState(t, it.name+" reset", we, it.ft, nil, nil)
		if we.HasNodeFault(0) {
			t.Fatalf("%s: reset left a node fault behind", it.name)
		}
	}
}

// TestWorstMixedFaultsMatchesLegacy pins the full mixed adversary —
// exhaustive, sampled+concentrator+greedy, and the parallel variant —
// to the legacy re-walk oracle, witness and Evaluated included.
func TestWorstMixedFaultsMatchesLegacy(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		for budget := 0; budget <= 2; budget++ {
			cfgs := []Config{
				{Mode: Exhaustive},
				{Mode: Sampled, Samples: 15, Seed: 3},
				{Mode: Sampled, Samples: 10, Greedy: true, Seed: 5},
			}
			for _, cfg := range cfgs {
				want := WorstMixedFaultsLegacy(it.ft, it.g, budget, cfg)
				got := WorstMixedFaults(it.ft, it.g, budget, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s budget %d cfg %+v: engine %v, legacy %v", it.name, budget, cfg, got, want)
				}
				par := WorstMixedFaultsParallel(it.ft, it.g, budget, cfg, 4)
				if !reflect.DeepEqual(par, want) {
					t.Fatalf("%s budget %d cfg %+v: parallel %v, legacy %v", it.name, budget, cfg, par, want)
				}
			}
		}
	}
}

// TestWorstMixedFaultsParallelWorkerCounts checks the ordered merge is
// worker-count independent, including workers > units, for the
// exhaustive search on per-worker clones and for the sampled+greedy
// search whose workers probe one shared engine.
func TestWorstMixedFaultsParallelWorkerCounts(t *testing.T) {
	it := walkEngineInstances(t)[1] // Q3 reinforced
	for _, cfg := range []Config{
		{Mode: Exhaustive},
		{Mode: Sampled, Samples: 10, Greedy: true, Seed: 5},
	} {
		want := WorstMixedFaults(it.ft, it.g, 2, cfg)
		for _, workers := range []int{1, 2, 3, 64} {
			if got := WorstMixedFaultsParallel(it.ft, it.g, 2, cfg, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v workers=%d: %v, want %v", cfg, workers, got, want)
			}
		}
	}
}

// TestWorstLinkCutsBudgetOverLinks is the regression test for the
// sampled draw-loop bound: a budget past the link count must terminate
// (the draw loop can never collect more distinct links than exist) and
// return exactly the result of the clamped budget, in every mode,
// serial and parallel. Without the clamp inside sampledMixedCuts, an
// unclamped call would spin forever at ids.Count() < budget.
func TestWorstLinkCutsBudgetOverLinks(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		m := len(it.g.Edges())
		for _, cfg := range []Config{
			{Mode: Exhaustive},
			{Mode: Sampled, Samples: 8, Seed: 11},
			{Mode: Sampled, Samples: 8, Greedy: true, Seed: 11},
		} {
			if cfg.Mode == Exhaustive && m > 12 {
				continue // 2^m sets — keep the race-detector leg fast
			}
			want := WorstLinkCuts(it.ft, it.g, m, cfg)
			if got := WorstLinkCuts(it.ft, it.g, m+5, cfg); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cfg %+v: budget m+5 gave %v, budget m gave %v", it.name, cfg, got, want)
			}
			if got := WorstLinkCutsParallel(it.ft, it.g, m+5, cfg, 4); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cfg %+v: parallel budget m+5 gave %v, budget m gave %v", it.name, cfg, got, want)
			}
			legacy := WorstLinkCutsLegacy(it.ft, it.g, m+5, cfg)
			if !reflect.DeepEqual(legacy, want) {
				t.Fatalf("%s cfg %+v: legacy budget m+5 gave %v, budget m gave %v", it.name, cfg, legacy, want)
			}
		}
	}
}

// TestWorstMixedFaultsBudgetOverUniverse is the same bound regression
// for the mixed universe: budgets past n+m must clamp and terminate.
func TestWorstMixedFaultsBudgetOverUniverse(t *testing.T) {
	it := walkEngineInstances(t)[0] // C9 rank-1: smallest universe
	items := it.g.N() + len(it.g.Edges())
	for _, cfg := range []Config{
		{Mode: Sampled, Samples: 5, Seed: 2},
		{Mode: Sampled, Samples: 5, Greedy: true, Seed: 2},
	} {
		want := WorstMixedFaults(it.ft, it.g, items, cfg)
		if got := WorstMixedFaults(it.ft, it.g, items+3, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: budget items+3 gave %v, budget items gave %v", cfg, got, want)
		}
		if got := WorstMixedFaultsParallel(it.ft, it.g, items+3, cfg, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: parallel budget items+3 gave %v, budget items gave %v", cfg, got, want)
		}
		if got := WorstMixedFaultsLegacy(it.ft, it.g, items+3, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("cfg %+v: legacy budget items+3 gave %v, budget items gave %v", cfg, got, want)
		}
	}
}
