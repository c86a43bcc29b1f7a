package eval

import (
	"slices"
	"testing"

	"ftroute/internal/routing"
)

// FuzzBoundedEquivalence pins the exhaustive searches, which run on
// the branch-and-bound executor, to the plain engine enumeration of
// search_oracle_test.go on random small graphs: for every generated
// instance MaxDiameter, MaxDiameterMixed and their Parallel drivers at
// 2–8 workers must reproduce the oracle's score, disconnection verdict,
// Evaluated count and first-max witness. Profile and ProfileMixed must
// match the plain exact-k enumerators, also when run directly on the
// fuzzed worker count. This is the bit-identity invariant the
// branch-and-bound speedup rests on (see docs/perf.md).
func FuzzBoundedEquivalence(f *testing.F) {
	f.Add(uint8(6), uint64(0), uint8(1), uint8(1))
	f.Add(uint8(9), uint64(0x5a5a), uint8(2), uint8(4))
	f.Add(uint8(12), uint64(0xf00f), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, nRaw uint8, extra uint64, fRaw, wRaw uint8) {
		n := 4 + int(nRaw)%9 // 4..12 nodes
		g := fuzzCutGraph(n, extra)
		r, err := routing.ShortestPath(g)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1 + int(fRaw)%2 // 1..2 faults
		workers := 2 + int(wRaw)%7

		cfg := Config{Mode: Exhaustive}

		want := plainMaxDiameter(r, budget, false, 1)
		sameResult(t, "serial", MaxDiameter(r, budget, cfg), want)
		sameResult(t, "parallel", MaxDiameterParallel(r, budget, cfg, workers), want)

		wantM := plainMaxDiameterMixed(r, budget, false, 1)
		sameMixedResult(t, "mixed serial", MaxDiameterMixed(r, budget, cfg), wantM)
		sameMixedResult(t, "mixed parallel", MaxDiameterMixedParallel(r, budget, cfg, workers), wantM)

		prof, profM := profileOracle(r, budget)
		if got := Profile(r, budget, cfg); !slices.Equal(got, prof) {
			t.Fatalf("profile %v != plain %v", got, prof)
		}
		if got := ProfileMixed(r, budget, cfg); !slices.Equal(got, profM) {
			t.Fatalf("mixed profile %v != plain %v", got, profM)
		}
		eng := NewEngine(r)
		clones := make([]*Engine, workers)
		for k := 0; k <= budget; k++ {
			res := eng.profileSearch(g.Edges(), k, clones)
			if got := profileScore(res.MaxDiameter, res.Disconnected); got != profM[k] {
				t.Fatalf("mixed profile k=%d on %d workers = %d, plain %d", k, workers, got, profM[k])
			}
		}
	})
}
