package core

import (
	"fmt"

	"ftroute/internal/connectivity"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// Options tunes the constructions. The zero value asks each construction
// to compute everything it needs.
type Options struct {
	// Tolerance is t (connectivity - 1). Leave 0 to have the
	// construction compute the graph's vertex connectivity; set it when
	// the connectivity is known (e.g. for generated families) to skip
	// that computation. A construction built with tolerance t yields a
	// (d, t)-tolerant routing per the corresponding theorem.
	Tolerance int
	// Separator optionally supplies a separating set of size >=
	// Tolerance+1 for the kernel construction.
	Separator []int
	// Concentrator optionally supplies a neighborhood set for the
	// circular and tri-circular constructions.
	Concentrator []int
	// MinimalK, for the circular construction, uses the paper's minimal
	// concentrator size (t+1 for even t, t+2 for odd t; Lemma 9) instead
	// of the default 2t+1. For the tri-circular construction it uses
	// K = 3t+3 / 3t+6 (Remark 14, (5,t)-tolerant) instead of 6t+9.
	MinimalK bool
}

// resolveTolerance returns t from opts or by computing κ(G)-1.
func resolveTolerance(g *graph.Graph, opts Options) (int, error) {
	if opts.Tolerance > 0 {
		return opts.Tolerance, nil
	}
	k, _, err := connectivity.VertexConnectivity(g)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrConnectivity, err)
	}
	if k < 1 {
		return 0, fmt.Errorf("%w: graph is disconnected", ErrConnectivity)
	}
	return k - 1, nil
}

// resolveSeparator returns opts.Separator, checked by checkSeparator,
// or a minimum separating set of g.
func resolveSeparator(g *graph.Graph, opts Options) ([]int, error) {
	if opts.Separator != nil {
		return opts.Separator, checkSeparator(g, opts.Separator)
	}
	m, err := connectivity.MinimumSeparator(g)
	if err != nil {
		return nil, fmt.Errorf("%w: no separating set: %v", ErrNotApplicable, err)
	}
	return m, nil
}

// checkSeparator rejects a caller-supplied separator that names a node
// outside g or names a node twice (which would count twice toward
// |M| >= t+1).
func checkSeparator(g *graph.Graph, sep []int) error {
	seen := graph.NewBitset(g.N())
	for _, v := range sep {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("%w: separator node %d out of range [0,%d)", ErrNotApplicable, v, g.N())
		}
		if seen.Has(v) {
			return fmt.Errorf("%w: separator node %d listed twice", ErrNotApplicable, v)
		}
		seen.Add(v)
	}
	return nil
}

// KernelInfo describes a constructed kernel routing.
type KernelInfo struct {
	T         int   // tolerated faults: routing is (2t,t)- and (4,⌊t/2⌋)-tolerant
	Separator []int // the concentrator M (a minimum separating set, |M| = t+1)
}

// Kernel builds the basic kernel routing of Dolev et al. (1984) as
// presented in Section 3 of the paper: choose a minimal separating set M
// of size t+1, give every node x ∉ M a tree routing to M (Component
// KERNEL 1) and every adjacent pair the direct edge route (Component
// KERNEL 2). The result is bidirectional, (2t, t)-tolerant (Theorem 3)
// and (4, ⌊t/2⌋)-tolerant (Theorem 4).
func Kernel(g *graph.Graph, opts Options) (*routing.Routing, *KernelInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	m, err := resolveSeparator(g, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(m) < t+1 {
		return nil, nil, fmt.Errorf("%w: separator size %d < t+1 = %d", ErrConnectivity, len(m), t+1)
	}
	r := routing.NewBidirectional(g)
	inM := graph.NewBitset(g.N())
	for _, v := range m {
		inM.Add(v)
	}
	// Component KERNEL 1: tree routings into the separator.
	trees := newTreeJobs(g, t+1)
	sep := trees.addSet(m)
	for x := 0; x < g.N(); x++ {
		if !inM.Has(x) {
			trees.add(x, sep)
		}
	}
	if err := trees.install(r.Set); err != nil {
		return nil, nil, err
	}
	// Component KERNEL 2: direct edge routes.
	if err := r.AddEdgeRoutes(); err != nil {
		return nil, nil, err
	}
	return r, &KernelInfo{T: t, Separator: m}, nil
}
