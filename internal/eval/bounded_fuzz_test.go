package eval

import (
	"slices"
	"testing"

	"ftroute/internal/routing"
)

// FuzzBoundedEquivalence pins the branch-and-bound exhaustive search to
// the plain one on random small graphs: for every generated instance
// the bounded flag must not change the score, the disconnection
// verdict, the Evaluated count, or the first-max witness, in either
// fault universe, serial or parallel at 2–8 workers. Profile and
// ProfileMixed, whose exhaustive path is always branch and bound, must
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
		cfgB := Config{Mode: Exhaustive, Bounded: true}

		want := MaxDiameter(r, budget, cfg)
		sameResult(t, "serial", MaxDiameter(r, budget, cfgB), want)
		sameResult(t, "parallel", MaxDiameterParallel(r, budget, cfgB, workers), want)

		wantM := MaxDiameterMixed(r, budget, cfg)
		sameMixedResult(t, "mixed serial", MaxDiameterMixed(r, budget, cfgB), wantM)
		sameMixedResult(t, "mixed parallel", MaxDiameterMixedParallel(r, budget, cfgB, workers), wantM)

		prof, profM := profileOracle(r, budget)
		if got := Profile(r, budget, cfgB); !slices.Equal(got, prof) {
			t.Fatalf("profile %v != plain %v", got, prof)
		}
		if got := ProfileMixed(r, budget, cfgB); !slices.Equal(got, profM) {
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
