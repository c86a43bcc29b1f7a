package eval

import (
	"testing"

	"ftroute/internal/core"
	"ftroute/internal/gen"
)

// Denominators of three CI ratio gates: the plain engine enumeration of
// search_oracle_test.go, one full diameter per fault set. The public
// searches they are gated against (the numerators) live in the root
// bench_test.go; cmd/benchdiff pairs the two sides by benchmark name, so
// CI appends this package's output to the root package's.

// BenchmarkExhaustivePlainSymCCC4F2 is the plain exhaustive node f=2
// search on the transported CCC(4) routing, engine compile included;
// denominator of BenchmarkExhaustivePrunedCCC4F2.
func BenchmarkExhaustivePlainSymCCC4F2(b *testing.B) {
	_, tr := transported(b, "CCC(4)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := plainMaxDiameter(tr, 2, false, 1); res.Evaluated != 2081 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveMixedPlainSymCCC4F2 is the mixed twin over the
// 12881-set f=2 universe; denominator of
// BenchmarkExhaustiveMixedPrunedCCC4F2.
func BenchmarkExhaustiveMixedPlainSymCCC4F2(b *testing.B) {
	_, tr := transported(b, "CCC(4)")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := plainMaxDiameterMixed(tr, 2, false, 1); res.Evaluated != 12881 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}

// BenchmarkExhaustiveEngineCCC7F1 is the plain exhaustive f=1 search
// over the 897 node fault sets of the 896-node CCC(7) circular routing;
// denominator of BenchmarkExhaustiveBoundedCCC7F1 and
// BenchmarkExhaustiveBoundedParallelCCC7F1.
func BenchmarkExhaustiveEngineCCC7F1(b *testing.B) {
	g, err := gen.CCC(7)
	if err != nil {
		b.Fatal(err)
	}
	r, _, err := core.Circular(g, core.Options{Tolerance: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := plainMaxDiameter(r, 1, false, 1); res.Evaluated != 897 {
			b.Fatalf("evaluated %d", res.Evaluated)
		}
	}
}
