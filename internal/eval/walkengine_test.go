package eval

import (
	"math/rand"
	"reflect"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// walkEngineInstances are the small instances the engine/legacy
// equivalence tests sweep: varied connectivity, routed-pair coverage
// (shortest routes every pair, kernel only a subset) and table ranks.
func walkEngineInstances(t *testing.T) []struct {
	name string
	g    *graph.Graph
	ft   *routing.FailoverTables
} {
	t.Helper()
	type instance = struct {
		name string
		g    *graph.Graph
		ft   *routing.FailoverTables
	}
	var out []instance
	add := func(name string, g *graph.Graph, backups int) {
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		if backups == 0 {
			out = append(out, instance{name, g, routing.FailoverFromRouting(r)})
			return
		}
		m, err := routing.Reinforce(r, backups)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, instance{name, g, routing.CompileFailover(m)})
	}
	c9, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	add("C9 rank-1", c9, 0)
	add("Q3 reinforced", q3, 2)
	add("Petersen reinforced", gen.Petersen(), 1)
	return out
}

// legacyOutcomes walks every pair of ft under cuts through the
// reference WalkUnderFaults path and returns the per-pair outcomes in
// Pairs() order plus their counts.
func legacyOutcomes(ft *routing.FailoverTables, cuts []routing.EdgeFault) ([]routing.Outcome, CutStats) {
	faults := routing.FaultSetOf(ft.N(), nil, cuts)
	outs := make([]routing.Outcome, len(ft.Pairs()))
	var s CutStats
	for i, p := range ft.Pairs() {
		o := ft.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome
		outs[i] = o
		s.Pairs++
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

// checkEngineState asserts the engine's cached per-pair outcomes and
// running stats match a fresh legacy re-walk under the same cuts.
func checkEngineState(t *testing.T, name string, we *WalkEngine, ft *routing.FailoverTables, cuts []routing.EdgeFault) {
	t.Helper()
	wantOuts, wantStats := legacyOutcomes(ft, cuts)
	if got := we.Stats(); got != wantStats {
		t.Fatalf("%s under %v: engine stats %v, legacy %v", name, cuts, got, wantStats)
	}
	for i := range wantOuts {
		if got := we.Outcome(i); got != wantOuts[i] {
			src, dst := we.Pair(i)
			t.Fatalf("%s under %v: pair (%d,%d) engine %v, legacy %v", name, cuts, src, dst, got, wantOuts[i])
		}
	}
}

// TestWalkEngineTogglesMatchLegacy drives every instance through a
// deterministic add/remove cut sequence and checks the cached outcomes
// (not just counts) against fresh legacy walks after every toggle.
func TestWalkEngineTogglesMatchLegacy(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		we := NewWalkEngine(it.ft, it.g)
		if we.PairCount() != len(it.ft.Pairs()) {
			t.Fatalf("%s: engine holds %d pairs, tables %d", it.name, we.PairCount(), len(it.ft.Pairs()))
		}
		checkEngineState(t, it.name, we, it.ft, nil)
		edges := it.g.Edges()
		rng := rand.New(rand.NewSource(7))
		live := map[[2]int]bool{}
		var cuts []routing.EdgeFault
		rebuildCuts := func() {
			cuts = cuts[:0]
			for _, e := range edges {
				if live[e] {
					cuts = append(cuts, routing.EdgeFault{U: e[0], V: e[1]})
				}
			}
		}
		for step := 0; step < 40; step++ {
			e := edges[rng.Intn(len(edges))]
			if live[e] {
				we.RemoveLinkCut(e[0], e[1])
				delete(live, e)
			} else {
				we.AddLinkCut(e[0], e[1])
				live[e] = true
			}
			rebuildCuts()
			checkEngineState(t, it.name, we, it.ft, cuts)
		}
		// Clones must be independent: mutate the clone, the original
		// must not move.
		c := we.Clone()
		before := we.Stats()
		c.Reset()
		if we.Stats() != before {
			t.Fatalf("%s: resetting a clone mutated the original", it.name)
		}
		checkEngineState(t, it.name+" clone", c, it.ft, nil)
		// SetCuts replaces the whole set by symmetric difference.
		target := []routing.EdgeFault{{U: edges[0][0], V: edges[0][1]}, {U: edges[len(edges)-1][0], V: edges[len(edges)-1][1]}}
		we.SetCuts(target)
		checkEngineState(t, it.name+" setcuts", we, it.ft, target)
		we.Reset()
		checkEngineState(t, it.name+" reset", we, it.ft, nil)
		if we.HasLinkCut(edges[0][0], edges[0][1]) {
			t.Fatalf("%s: reset left a cut behind", it.name)
		}
	}
}

// TestWalkEngineDisruptedPairs checks the disrupted-pair accessor
// against the legacy per-pair classification.
func TestWalkEngineDisruptedPairs(t *testing.T) {
	it := walkEngineInstances(t)[0] // C9 rank-1: single cut strands pairs
	we := NewWalkEngine(it.ft, it.g)
	cut := []routing.EdgeFault{{U: 0, V: 1}}
	we.SetCuts(cut)
	outs, _ := legacyOutcomes(it.ft, cut)
	var want [][2]int32
	for i, o := range outs {
		if o != routing.Delivered {
			p := it.ft.Pairs()[i]
			want = append(want, p)
		}
	}
	if got := we.DisruptedPairs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("disrupted pairs %v, want %v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("cutting a C9 link should disrupt rank-1 pairs")
	}
}

// TestWorstLinkCutsEngineMatchesLegacy pins the full adversary —
// exhaustive, sampled+concentrator+greedy, and the parallel variant —
// to the legacy re-walk implementation, witness and Evaluated included.
func TestWorstLinkCutsEngineMatchesLegacy(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		for budget := 0; budget <= 2; budget++ {
			cfgs := []Config{
				{Mode: Exhaustive},
				{Mode: Sampled, Samples: 15, Seed: 3},
				{Mode: Sampled, Samples: 10, Greedy: true, Seed: 5},
			}
			for _, cfg := range cfgs {
				want := WorstLinkCutsLegacy(it.ft, it.g, budget, cfg)
				got := WorstLinkCuts(it.ft, it.g, budget, cfg)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s budget %d cfg %+v: engine %v, legacy %v", it.name, budget, cfg, got, want)
				}
				par := WorstLinkCutsParallel(it.ft, it.g, budget, cfg, 4)
				if !reflect.DeepEqual(par, want) {
					t.Fatalf("%s budget %d cfg %+v: parallel %v, legacy %v", it.name, budget, cfg, par, want)
				}
			}
		}
	}
}

// TestWorstLinkCutsParallelWorkerCounts checks the merge is worker-count
// independent, including workers > units, for the exhaustive search on
// per-worker clones and for the sampled+greedy search whose workers
// probe one shared engine.
func TestWorstLinkCutsParallelWorkerCounts(t *testing.T) {
	it := walkEngineInstances(t)[1] // Q3 reinforced
	for _, cfg := range []Config{
		{Mode: Exhaustive},
		{Mode: Sampled, Samples: 10, Greedy: true, Seed: 5},
	} {
		want := WorstLinkCuts(it.ft, it.g, 2, cfg)
		for _, workers := range []int{1, 2, 3, 64} {
			if got := WorstLinkCutsParallel(it.ft, it.g, 2, cfg, workers); !reflect.DeepEqual(got, want) {
				t.Fatalf("cfg %+v workers=%d: %v, want %v", cfg, workers, got, want)
			}
		}
	}
}

// walkSnapshot is a deep copy of a WalkEngine's mutable walk cache,
// compared element by element (a nil and an empty item list are equal).
type walkSnapshot struct {
	outcome []routing.Outcome
	lists   [4][][]int32 // trav, blocked, visited, blockedN
	fails   []int32
	rows    [4][]uint64 // travRows, blockRows, visitRows, blockNodeRows
	stats   CutStats
	cut     []int
	nodes   []int
}

func snapshotWalk(we *WalkEngine) walkSnapshot {
	s := walkSnapshot{
		outcome: append([]routing.Outcome(nil), we.outcome...),
		fails:   append([]int32(nil), we.fails...),
		stats:   we.stats,
		cut:     we.cut.Elements(),
		nodes:   we.nodeFault.Elements(),
	}
	for i, l := range [][][]int32{we.trav, we.blocked, we.visited, we.blockedN} {
		s.lists[i] = make([][]int32, len(l))
		for p := range l {
			s.lists[i][p] = append([]int32{}, l[p]...)
		}
	}
	for i, r := range [][]uint64{we.travRows, we.blockRows, we.visitRows, we.blockNodeRows} {
		s.rows[i] = append([]uint64(nil), r...)
	}
	return s
}

// TestWalkProbeMatchesToggle pins the read-only probe to the toggle
// path: on every instance and on seeded random mixed prefix states of
// size 0-2, probing any absent item, or a random pair of absent items,
// must return exactly the Stats() the engine reports after really
// toggling them in — and the probes must leave every part of the walk
// cache as they found it.
func TestWalkProbeMatchesToggle(t *testing.T) {
	for _, it := range walkEngineInstances(t) {
		items := it.g.N() + len(it.g.Edges())
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < 6; trial++ {
			we := NewWalkEngine(it.ft, it.g)
			in := graph.NewBitset(items)
			for k := trial % 3; in.Count() < k; {
				in.Add(rng.Intn(items))
			}
			for _, v := range in.Elements() {
				we.toggleMixedItem(v, true)
			}
			var absent []int
			for v := 0; v < items; v++ {
				if !in.Has(v) {
					absent = append(absent, v)
				}
			}
			var probes [][]int
			for _, v := range absent {
				probes = append(probes, []int{v})
			}
			for i := 0; i < 30; i++ {
				a, b := absent[rng.Intn(len(absent))], absent[rng.Intn(len(absent))]
				if a != b {
					probes = append(probes, []int{a, b})
				}
			}
			before := snapshotWalk(we)
			pr := we.newProber()
			got := make([]CutStats, len(probes))
			for i, set := range probes {
				got[i] = pr.probe(set...)
			}
			if after := snapshotWalk(we); !reflect.DeepEqual(after, before) {
				t.Fatalf("%s prefix %v: probing mutated the engine", it.name, in.Elements())
			}
			for i, set := range probes {
				for _, v := range set {
					we.toggleMixedItem(v, true)
				}
				want := we.Stats()
				for _, v := range set {
					we.toggleMixedItem(v, false)
				}
				if got[i] != want {
					t.Fatalf("%s prefix %v: probe of %v = %v, toggled stats %v", it.name, in.Elements(), set, got[i], want)
				}
			}
		}
	}
}
