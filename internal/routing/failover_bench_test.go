package routing

import (
	"testing"

	"ftroute/internal/gen"
)

// benchFailoverBuild times the failover-table construction stage on the
// CCC(5) shortest-path routing (160 nodes, 25,440 routed pairs): plain
// rank-1 tables, two-backup reinforcement and the reinforced tables.
// The routing is built once, outside the timer.
func benchFailoverBuild(b *testing.B, build func(r *Routing) (entries int)) {
	g, err := gen.CCC(5)
	if err != nil {
		b.Fatal(err)
	}
	r, err := ShortestPath(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if build(r) == 0 {
			b.Fatal("no table entries")
		}
	}
}

// BenchmarkFailoverBuildCCC5 is the flat production pipeline:
// FailoverFromRouting, Reinforce(2) and CompileFailover.
func BenchmarkFailoverBuildCCC5(b *testing.B) {
	benchFailoverBuild(b, func(r *Routing) int {
		plain := FailoverFromRouting(r)
		m, err := Reinforce(r, 2)
		if err != nil {
			b.Fatal(err)
		}
		return plain.Entries() + CompileFailover(m).Entries()
	})
}

// BenchmarkFailoverBuildReferenceCCC5 runs the same pipeline on the
// map-based oracles of failover_oracle_test.go; CI gates the ratio of
// the two.
func BenchmarkFailoverBuildReferenceCCC5(b *testing.B) {
	benchFailoverBuild(b, func(r *Routing) int {
		plain := oracleFromRouting(r)
		m, err := oracleReinforce(r, 2)
		if err != nil {
			b.Fatal(err)
		}
		return len(plain.next) + len(oracleCompile(m).next)
	})
}
