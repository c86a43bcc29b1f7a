package core

import (
	"errors"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

func TestResolveToleranceDisconnected(t *testing.T) {
	g := graph.New(4)
	g.MustAddEdge(0, 1)
	if _, _, err := Kernel(g, Options{}); !errors.Is(err, ErrConnectivity) {
		t.Fatalf("disconnected graph: %v", err)
	}
}

func TestKernelRejectsTooSmallSeparator(t *testing.T) {
	g := mustGen(t)(gen.Hypercube(3)) // t = 2, needs |M| >= 3
	_, _, err := Kernel(g, Options{Tolerance: 2, Separator: []int{1, 2}})
	if !errors.Is(err, ErrConnectivity) {
		t.Fatalf("small separator: %v", err)
	}
}

func TestKernelWithExplicitSeparator(t *testing.T) {
	g := mustGen(t)(gen.Cycle(8))
	// {1, 5} separates C8; building with it should succeed and tolerate
	// one fault.
	r, info, err := Kernel(g, Options{Tolerance: 1, Separator: []int{1, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if info.T != 1 || len(info.Separator) != 2 {
		t.Fatalf("info = %+v", info)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCircularRejectsBadConcentrator(t *testing.T) {
	g := mustGen(t)(gen.Cycle(9))
	// Adjacent members are not a neighborhood set.
	_, _, err := Circular(g, Options{Tolerance: 1, Concentrator: []int{0, 1, 4}})
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("adjacent concentrator: %v", err)
	}
	// Too small.
	_, _, err = Circular(g, Options{Tolerance: 1, Concentrator: []int{0, 3}})
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("small concentrator: %v", err)
	}
	// Shared neighbors (distance 2) are rejected too.
	_, _, err = Circular(g, Options{Tolerance: 1, Concentrator: []int{0, 2, 5}})
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("distance-2 concentrator: %v", err)
	}
}

func TestTriCircularRejectsBadConcentrator(t *testing.T) {
	g := mustGen(t)(gen.Cycle(45))
	_, _, err := TriCircular(g, Options{Tolerance: 1, Concentrator: []int{0, 3, 6}})
	if !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("small concentrator: %v", err)
	}
}

func TestCircularExplicitConcentratorTruncated(t *testing.T) {
	g := mustGen(t)(gen.Cycle(15))
	// Provide 5 members; K = 3 must use the first three only.
	r, info, err := Circular(g, Options{Tolerance: 1, Concentrator: []int{0, 3, 6, 9, 12}})
	if err != nil {
		t.Fatal(err)
	}
	if info.K != 3 || len(info.M) != 3 {
		t.Fatalf("info = %+v", info)
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBipolarNotApplicableOnDense(t *testing.T) {
	g := mustGen(t)(gen.Hypercube(3))
	if _, _, err := BipolarUnidirectional(g, Options{Tolerance: 2}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("hypercube has 4-cycles everywhere: %v", err)
	}
	if _, _, err := BipolarBidirectional(g, Options{Tolerance: 2}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("hypercube has 4-cycles everywhere: %v", err)
	}
}

func TestBipolarRootDegreeGuard(t *testing.T) {
	// A long path has the two-trees property but degree-1 roots cannot
	// host t+1 = 1 tree-routing endpoints... they can (t=0); build with
	// inflated tolerance instead and expect rejection.
	g := mustGen(t)(gen.Cycle(12))
	if _, _, err := BipolarUnidirectional(g, Options{Tolerance: 5}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("tolerance beyond root degree: %v", err)
	}
}

func TestAutoOnDisconnected(t *testing.T) {
	g := graph.New(3)
	if _, err := Auto(g, Options{}); err == nil {
		t.Fatal("disconnected graph should fail")
	}
}

func TestMultiroutingRejectsSmallSeparatorOption(t *testing.T) {
	g := mustGen(t)(gen.Hypercube(3))
	if _, _, err := TwoRouteMultirouting(g, Options{Tolerance: 2, Separator: []int{0}}); !errors.Is(err, ErrConnectivity) {
		t.Fatalf("small separator: %v", err)
	}
	if _, _, _, err := CliqueAugmentedKernel(g, Options{Tolerance: 2, Separator: []int{0}}); !errors.Is(err, ErrConnectivity) {
		t.Fatalf("small separator: %v", err)
	}
}

func TestFullMultiroutingRejectsUnderConnected(t *testing.T) {
	// A path is 1-connected; requesting t=2 (3 disjoint paths) must fail.
	g := mustGen(t)(gen.Path(6))
	if _, _, err := FullMultirouting(g, Options{Tolerance: 2}); !errors.Is(err, ErrNotApplicable) {
		t.Fatalf("path cannot host 3 disjoint paths: %v", err)
	}
}

// TestBadNodeListsRejected checks that a caller-supplied separator or
// concentrator naming a node outside the graph, or naming a node twice,
// is rejected up front with ErrNotApplicable rather than panicking or
// failing later with a conflicting route.
func TestBadNodeListsRejected(t *testing.T) {
	cube := mustGen(t)(gen.Hypercube(3)) // 8 nodes, t = 2
	ring := mustGen(t)(gen.Cycle(15))    // t = 1, K = 3
	bigRing := mustGen(t)(gen.Cycle(45)) // t = 1, tri-circular K = 15
	separators := map[string][]int{
		"separator out of range": {0, 3, 8},
		"separator negative":     {-1, 3, 5},
		"separator duplicate":    {3, 3, 5},
	}
	for name, sep := range separators {
		opts := Options{Tolerance: 2, Separator: sep}
		t.Run(name, func(t *testing.T) {
			_, _, err := Kernel(cube, opts)
			if !errors.Is(err, ErrNotApplicable) {
				t.Errorf("Kernel: %v", err)
			}
			if _, _, err := KernelMultirouting(cube, opts); !errors.Is(err, ErrNotApplicable) {
				t.Errorf("KernelMultirouting: %v", err)
			}
			if _, _, err := TwoRouteMultirouting(cube, opts); !errors.Is(err, ErrNotApplicable) {
				t.Errorf("TwoRouteMultirouting: %v", err)
			}
			if _, _, _, err := CliqueAugmentedKernel(cube, opts); !errors.Is(err, ErrNotApplicable) {
				t.Errorf("CliqueAugmentedKernel: %v", err)
			}
		})
	}
	// A duplicated entry must not make a too-small separator pass the
	// |M| >= t+1 check: {1, 1} is one node for t = 1.
	if _, _, err := Kernel(mustGen(t)(gen.Cycle(8)), Options{Tolerance: 1, Separator: []int{1, 1}}); !errors.Is(err, ErrNotApplicable) {
		t.Errorf("Kernel with separator {1, 1}: %v", err)
	}
	// Circular on C15 needs K = 3 (valid: {0, 5, 10}); TriCircular on
	// C45 needs K = 15 (valid: every third node). Each case spoils one
	// entry of the valid set.
	for _, tc := range []struct {
		name string
		i, v int
	}{{"concentrator out of range", 2, 45}, {"concentrator negative", 0, -3}, {"concentrator duplicate", 1, 0}} {
		t.Run(tc.name, func(t *testing.T) {
			m := []int{0, 5, 10}
			m[tc.i] = tc.v
			if tc.v == 45 {
				m[tc.i] = 15
			}
			if err := CheckNeighborhoodSet(ring, m); err == nil {
				t.Errorf("CheckNeighborhoodSet accepted %v", m)
			}
			if _, _, err := Circular(ring, Options{Tolerance: 1, Concentrator: m}); !errors.Is(err, ErrNotApplicable) {
				t.Errorf("Circular: %v", err)
			}
			long := make([]int, 15)
			for j := range long {
				long[j] = 3 * j
			}
			long[tc.i] = tc.v
			if _, _, err := TriCircular(bigRing, Options{Tolerance: 1, Concentrator: long}); !errors.Is(err, ErrNotApplicable) {
				t.Errorf("TriCircular: %v", err)
			}
		})
	}
}
