package eval

import (
	"reflect"
	"testing"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// fuzzCutGraph mirrors the routing package's fuzzGraph: a cycle
// backbone over n nodes plus chords selected by the bits of extra, so
// the corpus explores varied connectivity deterministically.
func fuzzCutGraph(n int, extra uint64) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(i, (i+1)%n)
	}
	bit := 0
	for u := 0; u < n && bit < 64; u++ {
		for v := u + 2; v < n && bit < 64; v++ {
			if u == 0 && v == n-1 {
				continue // already a cycle edge
			}
			if extra&(1<<uint(bit)) != 0 {
				g.MustAddEdge(u, v)
			}
			bit++
		}
	}
	return g
}

// FuzzWalkEngineEquivalence pins the incremental WalkEngine to the
// legacy re-walk path on random tables and random fault-toggle
// sequences over both universes: after every single-item toggle (link
// cut, link repair, node fail, node repair) the cached per-pair
// outcomes and stats must equal a from-scratch mixed-oracle evaluation
// (Skipped for failed endpoints, WalkUnderFaults otherwise), and the
// engine-backed budget-1 exhaustive adversaries — link-only and mixed —
// must reproduce their legacy searches exactly. At every stage a
// read-only probe of each absent item must equal the mixed oracle of
// the fault set plus that item, and the sampled+greedy adversaries,
// which score candidates by such probes, must reproduce their legacy
// searches at budget 2 under a fuzzed seed. This is the
// invalidation-correctness property the engine's speed rests on (only
// pairs whose walk touched a toggled or probed item are re-walked).
func FuzzWalkEngineEquivalence(f *testing.F) {
	f.Add(uint8(6), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint8(10), uint64(0x5a5a), uint64(0x11), uint64(0b1010), uint64(0x9))
	f.Add(uint8(12), uint64(0xffff), uint64(0xf0f0), uint64(0x3), uint64(0x41))
	f.Fuzz(func(t *testing.T, nRaw uint8, extra, cutBits, repairBits, nodeBits uint64) {
		n := 4 + int(nRaw)%9 // 4..12 nodes
		g := fuzzCutGraph(n, extra)
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		m, err := routing.Reinforce(r, 1+int(extra)%2)
		if err != nil {
			t.Fatal(err)
		}
		ft := routing.CompileFailover(m)
		we := NewWalkEngine(ft, g)
		pr := we.newProber()
		edges := g.Edges()

		cut := map[int]bool{}
		down := map[int]bool{}
		check := func(stage string) {
			var cuts []routing.EdgeFault
			for i, e := range edges {
				if cut[i] {
					cuts = append(cuts, routing.EdgeFault{U: e[0], V: e[1]})
				}
			}
			var nodes []int
			for v := 0; v < n; v++ {
				if down[v] {
					nodes = append(nodes, v)
				}
			}
			faults := routing.FaultSetOf(n, nodes, cuts)
			if got, want := we.Stats(), walkAllPairsMixed(ft, faults); got != want {
				t.Fatalf("%s: engine stats %v, legacy %v (F %v E %v)", stage, got, want, nodes, cuts)
			}
			for i, p := range ft.Pairs() {
				want := routing.Skipped
				if !faults.NodeFaulty(int(p[0])) && !faults.NodeFaulty(int(p[1])) {
					want = ft.WalkUnderFaults(int(p[0]), int(p[1]), faults).Outcome
				}
				if got := we.Outcome(i); got != want {
					t.Fatalf("%s: pair (%d,%d) engine %v, legacy %v (F %v E %v)", stage, p[0], p[1], got, want, nodes, cuts)
				}
			}
			for v := 0; v < n; v++ {
				if down[v] {
					continue
				}
				want := walkAllPairsMixed(ft, routing.FaultSetOf(n, append(nodes[:len(nodes):len(nodes)], v), cuts))
				if got := pr.probe(v); got != want {
					t.Fatalf("%s: probe of node %d %v, legacy %v (F %v E %v)", stage, v, got, want, nodes, cuts)
				}
			}
			for i, e := range edges {
				if cut[i] {
					continue
				}
				extra := append(cuts[:len(cuts):len(cuts)], routing.EdgeFault{U: e[0], V: e[1]})
				want := walkAllPairsMixed(ft, routing.FaultSetOf(n, nodes, extra))
				if got := pr.probe(n + i); got != want {
					t.Fatalf("%s: probe of link %v %v, legacy %v (F %v E %v)", stage, e, got, want, nodes, cuts)
				}
			}
		}

		check("initial")
		for i := 0; i < len(edges) && i < 64; i++ {
			if cutBits&(1<<uint(i)) == 0 {
				continue
			}
			we.AddLinkCut(edges[i][0], edges[i][1])
			cut[i] = true
			check("add")
		}
		for v := 0; v < n; v++ {
			if nodeBits&(1<<uint(v)) == 0 {
				continue
			}
			we.AddNodeFault(v)
			down[v] = true
			check("fail-node")
		}
		for i := 0; i < len(edges) && i < 64; i++ {
			if repairBits&(1<<uint(i)) == 0 || !cut[i] {
				continue
			}
			we.RemoveLinkCut(edges[i][0], edges[i][1])
			delete(cut, i)
			check("remove")
		}
		for v := 0; v < n; v++ {
			if repairBits&(1<<uint(v)) == 0 || !down[v] {
				continue
			}
			we.RemoveNodeFault(v)
			delete(down, v)
			check("repair-node")
		}
		we.Reset()
		cut, down = map[int]bool{}, map[int]bool{}
		check("reset")

		// The engine-backed adversaries must reproduce the legacy
		// searches, witness and Evaluated included.
		cfg := Config{Mode: Exhaustive}
		got := WorstLinkCuts(ft, g, 1, cfg)
		want := WorstLinkCutsLegacy(ft, g, 1, cfg)
		if got.Evaluated != want.Evaluated || got.Stats != want.Stats ||
			len(got.Worst) != len(want.Worst) {
			t.Fatalf("adversary diverged: engine %v, legacy %v", got, want)
		}
		for i := range got.Worst {
			if got.Worst[i] != want.Worst[i] {
				t.Fatalf("worst witness diverged: engine %v, legacy %v", got.Worst, want.Worst)
			}
		}
		gotM := WorstMixedFaults(ft, g, 1, cfg)
		wantM := WorstMixedFaultsLegacy(ft, g, 1, cfg)
		if !reflect.DeepEqual(gotM, wantM) {
			t.Fatalf("mixed adversary diverged: engine %v, legacy %v", gotM, wantM)
		}

		// The probe-backed sampled+greedy adversaries at budget 2.
		cfg = Config{Mode: Sampled, Samples: 8, Greedy: true, Seed: int64(cutBits ^ repairBits)}
		if got, want := WorstLinkCuts(ft, g, 2, cfg), WorstLinkCutsLegacy(ft, g, 2, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("sampled adversary diverged: engine %v, legacy %v", got, want)
		}
		if got, want := WorstMixedFaults(ft, g, 2, cfg), WorstMixedFaultsLegacy(ft, g, 2, cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("sampled mixed adversary diverged: engine %v, legacy %v", got, want)
		}
	})
}
