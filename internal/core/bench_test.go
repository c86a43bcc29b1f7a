package core

import (
	"testing"

	"ftroute/internal/connectivity"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// Construction-stage benchmarks on the thousand-node anchors. CI runs
// the Circular/CircularReference pair at -cpu 1 and gates on its ns/op
// ratio, which then measures reusing one Lemma 2 network per target set
// rather than the runner's core count:
//
//	go test -run '^$' -bench '^BenchmarkCircular(Reference)?CCC7$' -cpu 1 -benchtime 3x ./internal/core

// benchGraph unwraps a generator result, failing the benchmark on error.
func benchGraph(b *testing.B) func(*graph.Graph, error) *graph.Graph {
	return func(g *graph.Graph, err error) *graph.Graph {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
}

// BenchmarkCircularCCC7 builds the circular routing of CCC(7) (896
// nodes, t=2), κ included, as ftroute and the benchmark workloads do.
func BenchmarkCircularCCC7(b *testing.B) {
	g := benchGraph(b)(gen.CCC(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Circular(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircularReferenceCCC7 is the same construction on the serial
// fresh-network reference: one Lemma 2 network per tree routing.
func BenchmarkCircularReferenceCCC7(b *testing.B) {
	g := benchGraph(b)(gen.CCC(7))
	b.ResetTimer()
	withReference(func() {
		for i := 0; i < b.N; i++ {
			if _, _, err := Circular(g, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVertexConnectivityCCC7 is κ(CCC(7)): every s–t flow on one
// shared split network. Report-only.
func BenchmarkVertexConnectivityCCC7(b *testing.B) {
	g := benchGraph(b)(gen.CCC(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := connectivity.VertexConnectivity(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelCCC7 builds the kernel routing of CCC(7), κ and the
// minimum separator included. Report-only.
func BenchmarkKernelCCC7(b *testing.B) {
	g := benchGraph(b)(gen.CCC(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Kernel(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTriCircularCCC7 builds the tri-circular routing of CCC(7)
// (K = 6t+9 = 21 target sets). Report-only.
func BenchmarkTriCircularCCC7(b *testing.B) {
	g := benchGraph(b)(gen.CCC(7))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := TriCircular(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCircularQ8 builds the circular routing of Q8 (256 nodes,
// t=7, K=15). Report-only.
func BenchmarkCircularQ8(b *testing.B) {
	g := benchGraph(b)(gen.Hypercube(8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Circular(g, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
