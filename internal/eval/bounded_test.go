package eval

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// boundedSources builds the equivalence anchors the branch-and-bound
// search is pinned against: a cycle edge routing, two symmetric paper
// constructions (orbit pruning kicks in when Pruned is set), and a
// seeded asymmetric random graph (pruning falls back to plain).
func boundedSources(t *testing.T) map[string]*routing.Routing {
	t.Helper()
	srcs := make(map[string]*routing.Routing)

	srcs["c9-edge"] = cycleRouting(t, 9)

	q3, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	srcs["q3-edge"] = edgeRoutingOn(t, q3)

	ccc, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	cccr, _, err := core.Circular(ccc, core.Options{Tolerance: 1})
	if err != nil {
		t.Fatal(err)
	}
	srcs["ccc3-circular"] = cccr

	rg, _, err := gen.GnpConnected(13, 0.3, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := routing.ShortestPath(rg)
	if err != nil {
		t.Fatal(err)
	}
	srcs["gnp13-sp"] = sp

	return srcs
}

// TestBoundedMatchesPlain pins the branch-and-bound node-fault search
// to the plain exhaustive search bit for bit — score, taxonomy,
// Evaluated, and the first-max witness — across fault budgets, worker
// counts, and the Pruned toggle.
func TestBoundedMatchesPlain(t *testing.T) {
	for name, s := range boundedSources(t) {
		for _, f := range []int{1, 2} {
			for _, pruned := range []bool{false, true} {
				cfg := Config{Mode: Exhaustive, Pruned: pruned}
				cfgB := cfg
				cfgB.Bounded = true
				want := MaxDiameter(s, f, cfg)
				got := MaxDiameter(s, f, cfgB)
				sameResult(t, fmt.Sprintf("%s f=%d pruned=%v serial", name, f, pruned), got, want)
				for _, workers := range []int{1, 2, 8} {
					wantP := MaxDiameterParallel(s, f, cfg, workers)
					gotP := MaxDiameterParallel(s, f, cfgB, workers)
					sameResult(t, fmt.Sprintf("%s f=%d pruned=%v w=%d plain-par", name, f, pruned, workers), wantP, want)
					sameResult(t, fmt.Sprintf("%s f=%d pruned=%v w=%d bounded-par", name, f, pruned, workers), gotP, want)
				}
			}
		}
	}
}

// TestBoundedMatchesPlainMixed is TestBoundedMatchesPlain over the
// mixed node+edge fault universe.
func TestBoundedMatchesPlainMixed(t *testing.T) {
	for name, s := range boundedSources(t) {
		for _, f := range []int{1, 2} {
			for _, pruned := range []bool{false, true} {
				cfg := Config{Mode: Exhaustive, Pruned: pruned}
				cfgB := cfg
				cfgB.Bounded = true
				want := MaxDiameterMixed(s, f, cfg)
				got := MaxDiameterMixed(s, f, cfgB)
				sameMixedResult(t, fmt.Sprintf("%s f=%d pruned=%v serial", name, f, pruned), got, want)
				for _, workers := range []int{1, 2, 8} {
					wantP := MaxDiameterMixedParallel(s, f, cfg, workers)
					gotP := MaxDiameterMixedParallel(s, f, cfgB, workers)
					sameMixedResult(t, fmt.Sprintf("%s f=%d pruned=%v w=%d plain-par", name, f, pruned, workers), wantP, want)
					sameMixedResult(t, fmt.Sprintf("%s f=%d pruned=%v w=%d bounded-par", name, f, pruned, workers), gotP, want)
				}
			}
		}
	}
}

// profileOracle is Profile and ProfileMixed through the plain engine
// exact-k enumerators: one full Diameter per fault set.
func profileOracle(s *routing.Routing, f int) (node, mixed []int) {
	eng := NewEngine(s)
	edges := s.Graph().Edges()
	for k := 0; k <= f; k++ {
		r := eng.exhaustiveExact(k)
		node = append(node, profileScore(r.MaxDiameter, r.Disconnected))
		m := eng.exhaustiveExactMixed(k, edges)
		mixed = append(mixed, profileScore(m.MaxDiameter, m.Disconnected))
	}
	return node, mixed
}

// profileScore is one Profile entry: -1 encodes disconnection.
func profileScore(diam int, disconnected bool) int {
	if disconnected {
		return -1
	}
	return diam
}

// profileSources adds to boundedSources the larger profile anchors —
// CCC(4) circular and a seeded random 3-regular graph — and a fragile
// single-route cycle that one fault disconnects, so -1 appears.
func profileSources(t *testing.T) map[string]*routing.Routing {
	t.Helper()
	srcs := boundedSources(t)
	ccc, err := gen.CCC(4)
	if err != nil {
		t.Fatal(err)
	}
	if srcs["ccc4-circular"], _, err = core.Circular(ccc, core.Options{Tolerance: 2}); err != nil {
		t.Fatal(err)
	}
	rr, _, err := gen.RandomRegularConnected(16, 3, 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if srcs["rr16-circular"], _, err = core.Circular(rr, core.Options{Tolerance: 1}); err != nil {
		t.Fatal(err)
	}
	c8, err := gen.Cycle(8)
	if err != nil {
		t.Fatal(err)
	}
	srcs["c8-fragile"] = newSingleRouteRouting(t, c8)
	return srcs
}

// TestBoundedProfileMatchesPlain pins Profile and ProfileMixed, whose
// exhaustive engine path is always the parallel branch-and-bound
// search, to the plain exact-k enumerators on both universes, with the
// Bounded flag on and off (Profile ignores it).
func TestBoundedProfileMatchesPlain(t *testing.T) {
	sawDisconnect := false
	for name, s := range profileSources(t) {
		want, wantM := profileOracle(s, 2)
		sawDisconnect = sawDisconnect || slices.Contains(want, -1)
		for _, bounded := range []bool{false, true} {
			cfg := Config{Mode: Exhaustive, Bounded: bounded}
			if got := Profile(s, 2, cfg); !slices.Equal(got, want) {
				t.Fatalf("%s bounded=%v: profile %v != plain %v", name, bounded, got, want)
			}
			if got := ProfileMixed(s, 2, cfg); !slices.Equal(got, wantM) {
				t.Fatalf("%s bounded=%v: mixed profile %v != plain %v", name, bounded, got, wantM)
			}
		}
	}
	if !sawDisconnect {
		t.Fatal("no profile anchor disconnects")
	}
}

// TestBoundedReplaysBorrowedPrefix covers the disconnected-result rule
// of the (score, unit) incumbent: a score borrowed from a unit after
// the first disconnection must not hide the largest diameter before
// it. The incumbent is seeded with a score from the last unit, as a
// parallel worker running ahead would leave it, so the root and the
// first unit skip every set; the search must detect that and replay.
func TestBoundedReplaysBorrowedPrefix(t *testing.T) {
	r := cycleRouting(t, 8)
	want := MaxDiameter(r, 2, Config{Mode: Exhaustive})
	if !want.Disconnected || want.MaxDiameter == 0 {
		t.Fatalf("anchor should disconnect after a positive prefix maximum: %v", want)
	}
	eng := NewEngine(r)
	s := firstItemSearch(eng.N(), nil, 2, false)
	s.best.raise(want.MaxDiameter+5, s.units)
	sameResult(t, "seeded incumbent", s.exec(eng, make([]*Engine, 1)).node(), want)
}

// TestDiameterAboveAgreesWithDiameter sweeps the bound across the true
// diameter and checks the three-way verdict of the pivot-pruned kernel
// on random fault sets: above=true must report the exact diameter,
// above=false certifies diameter ≤ bound, and disconnection matches.
func TestDiameterAboveAgreesWithDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for name, s := range boundedSources(t) {
		eng := NewEngine(s)
		n := s.Graph().N()
		for trial := 0; trial < 30; trial++ {
			eng.SetFaults(drawFaults(rng, n, rng.Intn(n/2+1)))
			if eng.AliveCount() <= 1 {
				continue
			}
			d, conn := eng.Diameter()
			for bound := -1; bound <= d+2; bound++ {
				got, above, gConn := eng.diameterAbove(bound)
				if gConn != conn {
					t.Fatalf("%s trial %d bound %d: connected %v != %v", name, trial, bound, gConn, conn)
				}
				if !conn {
					break
				}
				if bound < d {
					if !above || got != d {
						t.Fatalf("%s trial %d bound %d: got (%d,%v), want exact %d", name, trial, bound, got, above, d)
					}
				} else if above {
					t.Fatalf("%s trial %d bound %d: spurious above with diameter %d", name, trial, bound, d)
				}
			}
		}
	}
}

// TestDiameterParallelMatchesDiameter checks the intra-diameter
// source-parallel path against the serial kernel on random fault sets.
func TestDiameterParallelMatchesDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for name, s := range boundedSources(t) {
		eng := NewEngine(s)
		n := s.Graph().N()
		for trial := 0; trial < 30; trial++ {
			eng.SetFaults(drawFaults(rng, n, rng.Intn(n/2+1)))
			d, conn := eng.Diameter()
			for _, workers := range []int{1, 2, 8} {
				dp, cp := eng.DiameterParallel(workers)
				if cp != conn || (conn && dp != d) {
					t.Fatalf("%s trial %d w=%d: parallel (%d,%v) != serial (%d,%v)",
						name, trial, workers, dp, cp, d, conn)
				}
			}
		}
	}
}

// TestTiledKernelMatchesFlat forces the cache-blocked frontier
// expansion on tiny graphs by dropping the word threshold to 1 and
// replays the random-fault diameter comparison through it.
func TestTiledKernelMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, s := range boundedSources(t) {
		eng := NewEngine(s)
		n := s.Graph().N()
		dist := make([]int, n)
		distTiled := make([]int, n)
		for trial := 0; trial < 20; trial++ {
			eng.SetFaults(drawFaults(rng, n, rng.Intn(n/2+1)))
			d, conn := eng.Diameter()
			eng.DistancesFrom(eng.firstAlive(), dist)

			blockedBFSWords = 1
			dT, cT := eng.Diameter()
			eng.DistancesFrom(eng.firstAlive(), distTiled)
			blockedBFSWords = blockedBFSWordsDefault

			if cT != conn || (conn && dT != d) {
				t.Fatalf("%s trial %d: tiled (%d,%v) != flat (%d,%v)", name, trial, dT, cT, d, conn)
			}
			for v := 0; v < n; v++ {
				if dist[v] != distTiled[v] {
					t.Fatalf("%s trial %d: dist[%d] tiled %d != flat %d", name, trial, v, distTiled[v], dist[v])
				}
			}
		}
	}
}

// TestCountSetsMatchesEnumeration checks the closed-form subtree-size
// formulas the freeze-skip fast path uses against brute force.
func TestCountSetsMatchesEnumeration(t *testing.T) {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 1; i <= k; i++ {
			r = r * (n - k + i) / i
		}
		return r
	}
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			if got := countChoose(n, k); got != binom(n, k) {
				t.Fatalf("countChoose(%d,%d) = %d, want %d", n, k, got, binom(n, k))
			}
		}
		for left := 0; left <= 5; left++ {
			want := 0
			for s := 1; s <= left; s++ {
				want += binom(n, s)
			}
			if got := countSets(n, left); got != want {
				t.Fatalf("countSets(%d,%d) = %d, want %d", n, left, got, want)
			}
		}
	}
}

// TestBoundedGreedyDisconnection covers the greedy probe shortcut: on
// a fragile routing where single faults disconnect, the parallel
// greedy adversary (which now probes through diameterAbove with a
// minimal-disconnecting-item shortcut) must match the serial one.
func TestBoundedGreedyDisconnection(t *testing.T) {
	frag := graph.New(8)
	for i := 0; i < 8; i++ {
		frag.MustAddEdge(i, (i+1)%8)
	}
	s := newSingleRouteRouting(t, frag)
	cfg := Config{Mode: Sampled, Samples: 20, Seed: 5, Greedy: true}
	want := MaxDiameter(s, 3, cfg)
	for _, workers := range []int{2, 8} {
		got := MaxDiameterParallel(s, 3, cfg, workers)
		sameResult(t, fmt.Sprintf("fragile greedy w=%d", workers), got, want)
	}
}
