package ftroute

// Benchmark harness: one benchmark per experiment (E1..E13, the
// empirical tables standing in for the theory paper's theorems, figures
// and remarks — see DESIGN.md §4 and EXPERIMENTS.md), plus
// micro-benchmarks of the library's hot operations. Regenerate the full
// tables with:
//
//	go run ./cmd/experiments
//
// The experiment benchmarks run the Quick configurations so that
// `go test -bench=.` terminates in reasonable time; cmd/experiments
// runs the Full configurations.

import (
	"testing"

	"ftroute/internal/eval"
	"ftroute/internal/experiments"
	"ftroute/internal/graph"
)

// benchExperiment runs one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := experiments.Run(id, experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE01Kernel2t regenerates E1 (Theorem 3: kernel (2t,t)).
func BenchmarkE01Kernel2t(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE02KernelHalf regenerates E2 (Theorem 4: kernel (4,⌊t/2⌋)).
func BenchmarkE02KernelHalf(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE03Circular regenerates E3 (Theorem 10 / Figure 1).
func BenchmarkE03Circular(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE04TriCircular regenerates E4 (Theorem 13 / Figure 2).
func BenchmarkE04TriCircular(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE05SmallTriCirc regenerates E5 (Remark 14).
func BenchmarkE05SmallTriCirc(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE06Neighborhood regenerates E6 (Lemma 15).
func BenchmarkE06Neighborhood(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE07Thresholds regenerates E7 (Theorem 16 / Corollary 17).
func BenchmarkE07Thresholds(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE08BipolarUni regenerates E8 (Theorem 20 / Figure 3).
func BenchmarkE08BipolarUni(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE09BipolarBi regenerates E9 (Theorem 23).
func BenchmarkE09BipolarBi(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10TwoTreesGnp regenerates E10 (Lemma 24 / Theorem 25).
func BenchmarkE10TwoTreesGnp(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11Multirouting regenerates E11 (Section 6, multiroutings).
func BenchmarkE11Multirouting(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12Augment regenerates E12 (Section 6, network modification).
func BenchmarkE12Augment(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13Baseline regenerates E13 (shortest-path comparison).
func BenchmarkE13Baseline(b *testing.B) { benchExperiment(b, "E13") }

// --- Micro-benchmarks of the library's hot paths ---

func BenchmarkVertexConnectivityCCC4(b *testing.B) {
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := VertexConnectivity(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelConstructionQ5(b *testing.B) {
	g, err := Hypercube(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Kernel(g, Options{Tolerance: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircularConstructionC24(b *testing.B) {
	g, err := Cycle(24)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Circular(g, Options{Tolerance: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriCircularConstructionC45(b *testing.B) {
	g, err := Cycle(45)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TriCircular(g, Options{Tolerance: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBipolarConstructionC16(b *testing.B) {
	g, err := Cycle(16)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BipolarUnidirectional(g, Options{Tolerance: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSurvivingGraphCCC4(b *testing.B) {
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		b.Fatal(err)
	}
	faults := FaultsOf(g.N(), 3, 40)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := r.SurvivingGraph(faults)
		if d.Arcs() == 0 {
			b.Fatal("no arcs")
		}
	}
}

func BenchmarkSurvivingDiameterCCC4(b *testing.B) {
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		b.Fatal(err)
	}
	d := r.SurvivingGraph(FaultsOf(g.N(), 3, 40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := d.Diameter(); !ok {
			b.Fatal("disconnected")
		}
	}
}

func BenchmarkShortestPathRoutingQ5(b *testing.B) {
	g, err := Hypercube(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ShortestPathRouting(g); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNeighborhoodSetRR400(b *testing.B) {
	g, _, err := RandomRegularConnected(400, 3, 5, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m := NeighborhoodSet(g); len(m) == 0 {
			b.Fatal("empty set")
		}
	}
}

func BenchmarkTwoTreesDetectionRR200(b *testing.B) {
	g, _, err := RandomRegularConnected(200, 3, 7, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HasTwoTrees(g)
	}
}

// --- Evaluation-engine benchmarks (see internal/eval.Engine) ---
//
// The CCC(4) circular routing (64 nodes, t=2) is the mid-size anchor
// instance: exhaustive f=2 evaluates 1 + 64 + C(64,2) = 2081 fault
// sets. Engine* benchmarks exercise the incremental path; the *Legacy*
// twins force the rebuild-per-set SurvivingGraph path for comparison.
// BENCH_eval.json records the checked-in baseline numbers.

// legacySurvivor hides EachRoute so eval takes the legacy path.
type legacySurvivor struct {
	r *Routing
}

func (l legacySurvivor) SurvivingGraph(f *graph.Bitset) *graph.Digraph { return l.r.SurvivingGraph(f) }
func (l legacySurvivor) Graph() *Graph                                 { return l.r.Graph() }

// ccc4Circular builds the anchor instance.
func ccc4Circular(b *testing.B) *Routing {
	b.Helper()
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 2})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkEngineCompileCCC4 measures the one-time compilation cost
// (CSR inverted index + adjacency bitrows) that every search amortizes.
func BenchmarkEngineCompileCCC4(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng := NewEvalEngine(r); eng.AliveCount() != 64 {
			b.Fatal("bad engine")
		}
	}
}

// BenchmarkEngineFaultToggleCCC4 measures one incremental fault
// add+remove pair — the per-step cost of walking the enumeration tree,
// touching only the routes through the toggled node.
func BenchmarkEngineFaultToggleCCC4(b *testing.B) {
	eng := NewEvalEngine(ccc4Circular(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % 64
		eng.AddFault(v)
		eng.RemoveFault(v)
	}
}

// BenchmarkEngineDiameterCCC4 measures one word-parallel diameter over
// the live bitrows; compare BenchmarkSurvivingDiameterCCC4, the
// allocating per-node BFS on a materialized Digraph.
func BenchmarkEngineDiameterCCC4(b *testing.B) {
	eng := NewEvalEngine(ccc4Circular(b))
	eng.SetFaults(FaultsOf(64, 3, 40))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Diameter(); !ok {
			b.Fatal("disconnected")
		}
	}
}

// BenchmarkExhaustiveEngineCCC4F2 is the headline: exhaustive f=2
// evaluation of the anchor instance through the incremental engine, on
// the serial branch-and-bound executor.
func BenchmarkExhaustiveEngineCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveLegacyCCC4F2 is the same search forced through the
// rebuild-per-fault-set SurvivingGraph+Diameter path.
func BenchmarkExhaustiveLegacyCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(legacySurvivor{r: r}, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveEngineParallelCCC4F2 adds work-stealing engine
// clones sharing the branch-and-bound incumbent.
func BenchmarkExhaustiveEngineParallelCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterParallel(r, 2, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// legacyMixedSurvivor hides EachRoute so mixed eval takes the
// rebuild-per-set SurvivingGraphMixed path.
type legacyMixedSurvivor struct {
	r *Routing
}

func (l legacyMixedSurvivor) SurvivingGraph(f *graph.Bitset) *graph.Digraph {
	return l.r.SurvivingGraph(f)
}
func (l legacyMixedSurvivor) SurvivingGraphMixed(f *graph.Bitset, e []EdgeFault) *graph.Digraph {
	return l.r.SurvivingGraphMixed(f, e)
}
func (l legacyMixedSurvivor) Graph() *Graph { return l.r.Graph() }

// BenchmarkEngineEdgeToggleCCC4 measures one incremental edge-fault
// add+remove pair — the per-step cost of the mixed enumeration tree,
// touching only the routes over the toggled link.
func BenchmarkEngineEdgeToggleCCC4(b *testing.B) {
	r := ccc4Circular(b)
	edges := r.Graph().Edges()
	eng := NewEvalEngine(r)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		eng.AddEdgeFault(e[0], e[1])
		eng.RemoveEdgeFault(e[0], e[1])
	}
}

// BenchmarkExhaustiveMixedEngineCCC4F2 is the edge-fault headline:
// exhaustive mixed f=2 on the anchor instance, on the serial
// branch-and-bound executor. The universe is 64 nodes + 96 edges, so
// 1 + 160 + C(160,2) = 12881 mixed fault sets.
func BenchmarkExhaustiveMixedEngineCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterMixed(r, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveMixedLegacyCCC4F2 is the same mixed search forced
// through the rebuild-per-set SurvivingGraphMixed+Diameter path.
func BenchmarkExhaustiveMixedLegacyCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterMixed(legacyMixedSurvivor{r: r}, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveMixedBoundedParallelCCC4F2 runs the same mixed
// search on GOMAXPROCS workers of the branch-and-bound executor:
// work-stealing clones share one (score, unit) incumbent.
func BenchmarkExhaustiveMixedBoundedParallelCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterMixedParallel(r, 2, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkProfileMixedCCC4F2 is the per-size mixed profile over the
// same 12881 sets, which always runs on the parallel branch-and-bound
// executor, without a witness.
func BenchmarkProfileMixedCCC4F2(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p := eval.ProfileMixed(r, 2, eval.Config{Mode: eval.Exhaustive}); len(p) != 3 {
			b.Fatalf("profile %v", p)
		}
	}
}

// --- Static-failover benchmarks (see internal/routing failover) ---
//
// The anchor instance again: CCC(4) circular reinforced with 2 backup
// routes per pair and compiled to ranked failover tables. Walks are
// packet-level, so these benchmarks bound the cost of the link-cut
// adversary (every probed cut set walks every routed pair).

// ccc4Failover compiles the anchor routing to reinforced tables.
func ccc4Failover(b *testing.B) *FailoverTables {
	b.Helper()
	m, err := Reinforce(ccc4Circular(b), 2)
	if err != nil {
		b.Fatal(err)
	}
	return CompileFailover(m)
}

// BenchmarkCompileFailoverCCC4 measures the one-time table compilation
// (reinforcement included) that every adversary search amortizes.
func BenchmarkCompileFailoverCCC4(b *testing.B) {
	r := ccc4Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Reinforce(r, 2)
		if err != nil {
			b.Fatal(err)
		}
		if t := CompileFailover(m); t.Entries() == 0 {
			b.Fatal("empty tables")
		}
	}
}

// BenchmarkWalkUnderFaultsCCC4 measures one hop-by-hop failover walk
// under a mixed fault set, rotating over every routed pair.
func BenchmarkWalkUnderFaultsCCC4(b *testing.B) {
	t := ccc4Failover(b)
	edges := ccc4Circular(b).Graph().Edges()
	e1, e2 := edges[0], edges[len(edges)/2]
	faults := FaultSetOf(t.N(), []int{5}, []EdgeFault{
		{U: e1[0], V: e1[1]}, {U: e2[0], V: e2[1]},
	})
	pairs := t.Pairs()
	hops := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		hops += t.WalkUnderFaults(int(p[0]), int(p[1]), faults).Hops
	}
	if hops < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkWalkEngineCompileCCC4 measures the one-time WalkEngine
// compilation (flat walk arrays + initial all-pairs walk + inverted
// link→pairs indexes) that every adversary search amortizes.
func BenchmarkWalkEngineCompileCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		we := NewWalkEngine(t, g)
		if we.Stats().Delivered != we.PairCount() {
			b.Fatal("cut-free walks must all deliver")
		}
	}
}

// BenchmarkWalkEngineCutToggleCCC4 measures one incremental
// AddLinkCut+RemoveLinkCut pair — the per-step cost of the exhaustive
// enumeration tree, re-walking only the pairs whose cached walk crossed
// the toggled link.
func BenchmarkWalkEngineCutToggleCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	edges := g.Edges()
	we := NewWalkEngine(t, g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		we.AddLinkCut(e[0], e[1])
		we.RemoveLinkCut(e[0], e[1])
	}
}

// BenchmarkWorstLinkCutsEngineCCC4 is the walk-engine headline: the
// exhaustive budget-1 link-cut adversary (1 + 96 cut sets) through the
// incremental WalkEngine. CI gates its ns/op ratio against the legacy
// twin below.
func BenchmarkWorstLinkCutsEngineCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCuts(t, g, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 97 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsLegacyCCC4 is the same budget-1 search through
// the legacy path that re-walks all 4032 pairs per cut set.
func BenchmarkWorstLinkCutsLegacyCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCutsLegacy(t, g, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 97 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsEngineParallelCCC4 adds work-stealing engine
// clones over first-link enumeration prefixes, at budget 2 so each
// stolen unit amortizes its clone (budget 1 has one set per unit).
func BenchmarkWorstLinkCutsEngineParallelCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCutsParallel(t, g, 2, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 4657 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstMixedFaultsEngineCCC4 is the mixed-universe packet
// adversary headline: the exhaustive budget-1 search over all 64 nodes
// and 96 links (1 + 160 fault sets) through the incremental WalkEngine
// with node-fault invalidation. CI gates its ns/op ratio against the
// legacy twin below.
func BenchmarkWorstMixedFaultsEngineCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstMixedFaults(t, g, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 161 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstMixedFaultsLegacyCCC4 is the same budget-1 mixed search
// through the legacy path that re-walks all 4032 pairs per fault set.
func BenchmarkWorstMixedFaultsLegacyCCC4(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstMixedFaultsLegacy(t, g, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 161 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsSampledCCC4F2 is the sampled+greedy+concentrator
// adversary at budget 2 — the scale the failover CLI subcommand runs —
// now engine-backed.
func BenchmarkWorstLinkCutsSampledCCC4F2(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCuts(t, g, 2, eval.Config{Mode: eval.Sampled, Samples: 20, Greedy: true, Seed: 1})
		if res.Evaluated == 0 {
			b.Fatal("no sets evaluated")
		}
	}
}

// BenchmarkWorstMixedFaultsSampledCCC4F2 is the sampled+concentrator+
// greedy mixed adversary at budget 2 — the failover-ccc5 benchmark
// workload's search at CCC(4) scale: 20 drawn sets and two greedy
// rounds (160 + 159 candidates), each scored by a read-only WalkEngine
// probe, plus the 10 concentrator sets. CI gates its ns/op ratio
// against the legacy twin below.
func BenchmarkWorstMixedFaultsSampledCCC4F2(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstMixedFaults(t, g, 2, eval.Config{Mode: eval.Sampled, Samples: 20, Greedy: true, Seed: 1})
		if res.Evaluated != 350 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstMixedFaultsSampledLegacyCCC4F2 is the same sampled
// search through the legacy path that re-walks all 4032 pairs per
// probed set.
func BenchmarkWorstMixedFaultsSampledLegacyCCC4F2(b *testing.B) {
	t := ccc4Failover(b)
	g := ccc4Circular(b).Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstMixedFaultsLegacy(t, g, 2, eval.Config{Mode: eval.Sampled, Samples: 20, Greedy: true, Seed: 1})
		if res.Evaluated != 350 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// --- Orbit-pruned exhaustive search benchmarks (internal/sym) ---
//
// The transported anchor: CCC(4) shortest-path routing made strictly
// equivariant under a pair-free automorphism subgroup, the routing kind
// EvalConfig.Pruned engages on. The *PlainSym* twins run the identical
// search on the identical routing with pruning off — the node and mixed
// ones as the plain engine enumeration, which is test-only code and so
// lives in internal/eval/search_bench_test.go — so each pruned/plain
// ns-ratio isolates the orbit enumerator's win; CI gates all three
// ratios via cmd/benchdiff -gate-ratio.

// ccc4Transported builds the symmetric anchor instance.
func ccc4Transported(b *testing.B) (*Graph, *Routing) {
	b.Helper()
	g, err := CCC(4)
	if err != nil {
		b.Fatal(err)
	}
	r, err := ShortestPathRouting(g)
	if err != nil {
		b.Fatal(err)
	}
	gr := Automorphisms(g)
	elems := GroupElements(gr.N, gr.Gens, 1<<14)
	tr, err := TransportRouting(g, r, FreePairSubgroup(elems))
	if err != nil {
		b.Fatal(err)
	}
	return g, tr
}

// BenchmarkExhaustivePrunedCCC4F2 measures the orbit-pruned exhaustive
// node-fault search over CCC(4)'s 2081 sets at f=2.
func BenchmarkExhaustivePrunedCCC4F2(b *testing.B) {
	_, tr := ccc4Transported(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(tr, 2, eval.Config{Mode: eval.Exhaustive, Pruned: true})
		if res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveMixedPrunedCCC4F2 measures the orbit-pruned
// exhaustive mixed search over CCC(4)'s 12881-set f=2 universe — the
// acceptance anchor for the >=10x representative reduction.
func BenchmarkExhaustiveMixedPrunedCCC4F2(b *testing.B) {
	_, tr := ccc4Transported(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterMixed(tr, 2, eval.Config{Mode: eval.Exhaustive, Pruned: true})
		if res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsPrunedCCC4 measures the orbit-pruned exhaustive
// budget-2 link-cut adversary (4657 sets) on tables compiled from the
// transported routing. Budget 2, not 1: the equivariance safety check
// walks all ~24k table entries per group element, a fixed cost only a
// multi-thousand-set search amortizes.
func BenchmarkWorstLinkCutsPrunedCCC4(b *testing.B) {
	g, tr := ccc4Transported(b)
	t := FailoverFromRouting(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCuts(t, g, 2, eval.Config{Mode: eval.Exhaustive, Pruned: true})
		if res.Evaluated != 4657 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkWorstLinkCutsPlainSymCCC4 is the budget-2 twin with pruning
// off.
func BenchmarkWorstLinkCutsPlainSymCCC4(b *testing.B) {
	g, tr := ccc4Transported(b)
	t := FailoverFromRouting(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := WorstLinkCuts(t, g, 2, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 4657 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkE14EdgeFaults regenerates E14 (edge-fault extension).
func BenchmarkE14EdgeFaults(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE18MixedEngine regenerates E18 (engine-backed mixed search).
func BenchmarkE18MixedEngine(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE15NetsimDelivery regenerates E15 (simulated delivery).
func BenchmarkE15NetsimDelivery(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Ablation regenerates E16 (construction cost ablation).
func BenchmarkE16Ablation(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17BeyondTolerance regenerates E17 (Open Problem 3 probe).
func BenchmarkE17BeyondTolerance(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE19Failover regenerates E19 (static-failover adversaries).
func BenchmarkE19Failover(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20Symmetry regenerates E20 (orbit-pruned enumeration).
func BenchmarkE20Symmetry(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21Bounded regenerates E21 (branch-and-bound search).
func BenchmarkE21Bounded(b *testing.B) { benchExperiment(b, "E21") }

// --- Thousand-node anchors (branch-and-bound search, docs/perf.md) ---
//
// The large anchors scale the exhaustive adversary past the 64-node
// CCC(4) instance: CCC(7) has 896 nodes and Q10 has 1024, so a single
// f=1 sweep runs ~900 incremental fault sets over ~13k-arc route
// graphs. The Bounded benchmarks time the public exhaustive search,
// which always runs on the branch-and-bound executor and must stay
// bit-identical to the plain engine enumeration (pinned by
// internal/eval's differential tests); CI gates their ns ratio against
// that plain enumeration, BenchmarkExhaustiveEngineCCC7F1 in
// internal/eval/search_bench_test.go, so the branch-and-bound speedup
// cannot silently rot. Run these with -benchtime 1x: one iteration is
// a full exhaustive sweep.

// ccc7Circular builds the 896-node anchor instance.
func ccc7Circular(b *testing.B) *Routing {
	b.Helper()
	g, err := CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 1})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// q10Circular builds the 1024-node anchor instance.
func q10Circular(b *testing.B) *Routing {
	b.Helper()
	g, err := Hypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := Circular(g, Options{Tolerance: 1})
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkExhaustiveBoundedCCC7F1 is the branch-and-bound search on
// the 896-node anchor: multi-pivot diameterAbove against the incumbent.
func BenchmarkExhaustiveBoundedCCC7F1(b *testing.B) {
	r := ccc7Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 897 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveBoundedParallelCCC7F1 adds work-stealing engine
// clones sharing the branch-and-bound incumbent atomically. CI gates
// this against the plain BenchmarkExhaustiveEngineCCC7F1.
func BenchmarkExhaustiveBoundedParallelCCC7F1(b *testing.B) {
	r := ccc7Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameterParallel(r, 1, eval.Config{Mode: eval.Exhaustive}, 0)
		if res.Evaluated != 897 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveBoundedQ10F1 is the branch-and-bound search on
// the 1024-node hypercube anchor.
func BenchmarkExhaustiveBoundedQ10F1(b *testing.B) {
	r := q10Circular(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := eval.MaxDiameter(r, 1, eval.Config{Mode: eval.Exhaustive})
		if res.Evaluated != 1025 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// edgeSource adapts a bare graph to eval.RouteSource with one
// single-edge route per arc, so R(G,ρ)/F is G−F itself. It is how the
// BFS/diameter kernels are exercised at node counts where a full n²
// routing would not fit in memory (RandomRegularConnected(5000,3) has
// 25M ordered pairs).
type edgeSource struct{ g *Graph }

func (s edgeSource) Graph() *Graph { return s.g }

func (s edgeSource) SurvivingGraph(f *graph.Bitset) *graph.Digraph {
	d := graph.NewDigraph(s.g.N())
	for v := 0; v < s.g.N(); v++ {
		if f.Has(v) {
			d.Disable(v)
		}
	}
	for _, e := range s.g.Edges() {
		if f.Has(e[0]) || f.Has(e[1]) {
			continue
		}
		d.AddArc(e[0], e[1])
		d.AddArc(e[1], e[0])
	}
	return d
}

func (s edgeSource) EachRoute(fn func(u, v int, p Path)) {
	for _, e := range s.g.Edges() {
		fn(e[0], e[1], Path{e[0], e[1]})
		fn(e[1], e[0], Path{e[1], e[0]})
	}
}

// rr5000Engine compiles the 5000-node sparse anchor.
func rr5000Engine(b *testing.B) *eval.Engine {
	b.Helper()
	g, _, err := RandomRegularConnected(5000, 3, 11, 50)
	if err != nil {
		b.Fatal(err)
	}
	return eval.NewEngine(edgeSource{g: g})
}

// BenchmarkEngineCompileRR5000 measures compiling the 5000-node
// adapter (15k routes) into bitrows and CSR indexes.
func BenchmarkEngineCompileRR5000(b *testing.B) {
	g, _, err := RandomRegularConnected(5000, 3, 11, 50)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng := eval.NewEngine(edgeSource{g: g}); eng.AliveCount() != 5000 {
			b.Fatal("bad engine")
		}
	}
}

// BenchmarkEngineDiameterRR5000 is the serial word-parallel diameter
// on the 5000-node sparse graph: 5000 BFS over 79-word bitrows.
func BenchmarkEngineDiameterRR5000(b *testing.B) {
	eng := rr5000Engine(b)
	eng.SetFaults(FaultsOf(5000, 3, 40, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.Diameter(); !ok {
			b.Fatal("disconnected")
		}
	}
}

// BenchmarkEngineDiameterParallelRR5000 is the intra-diameter parallel
// path: a worker pool steals sources, sharing pooled BFS scratch and an
// atomic running maximum.
func BenchmarkEngineDiameterParallelRR5000(b *testing.B) {
	eng := rr5000Engine(b)
	eng.SetFaults(FaultsOf(5000, 3, 40, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := eng.DiameterParallel(0); !ok {
			b.Fatal("disconnected")
		}
	}
}
