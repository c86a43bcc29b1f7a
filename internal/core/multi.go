package core

import (
	"fmt"

	"ftroute/internal/connectivity"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// MultiInfo describes a constructed multirouting (Section 6).
type MultiInfo struct {
	T     int
	Limit int // routes allowed per pair
	Bound int // proven (or paper-claimed) diameter bound
	M     []int
}

// FullMultirouting implements observation (1) of Section 6: with t+1
// parallel routes per pair, choose t+1 internally disjoint paths between
// every pair of nodes; at most t faults leave at least one route alive,
// so the surviving graph has diameter 1 — a (1, t)-tolerant
// multirouting. Construction cost is quadratic in n; intended for small
// and medium graphs.
func FullMultirouting(g *graph.Graph, opts Options) (*routing.MultiRouting, *MultiInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	m := routing.NewMulti(g, t+1, true)
	n := g.N()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			paths, err := connectivity.DisjointPaths(g, u, v, t+1)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrNotApplicable, err)
			}
			for _, p := range paths {
				if err := m.Add(routing.Path(p)); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return m, &MultiInfo{T: t, Limit: t + 1, Bound: 1}, nil
}

// KernelMultirouting implements observation (2) of Section 6: the basic
// kernel routing augmented with t+1 parallel routes between nodes
// *inside* the concentrator M. Any two concentrator members then remain
// adjacent in the surviving graph, so the diameter is at most 3 — a
// (3, t)-tolerant multirouting with multi-routes confined to the
// t(t+1)/2 concentrator pairs.
func KernelMultirouting(g *graph.Graph, opts Options) (*routing.MultiRouting, *MultiInfo, error) {
	kr, info, err := Kernel(g, opts)
	if err != nil {
		return nil, nil, err
	}
	t := info.T
	m := routing.NewMulti(g, t+1, true)
	kr.Each(func(u, v int, p routing.Path) {
		if u < v { // Add installs both directions
			if err2 := m.Add(p); err2 != nil && err == nil {
				err = err2
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < len(info.Separator); i++ {
		for j := i + 1; j < len(info.Separator); j++ {
			u, v := info.Separator[i], info.Separator[j]
			paths, perr := connectivity.DisjointPaths(g, u, v, t+1)
			if perr != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrNotApplicable, perr)
			}
			for _, p := range paths {
				if aerr := m.Add(routing.Path(p)); aerr != nil {
					return nil, nil, aerr
				}
			}
		}
	}
	return m, &MultiInfo{T: t, Limit: t + 1, Bound: 3, M: info.Separator}, nil
}

// TwoRouteMultirouting implements observation (3) of Section 6: with at
// most two parallel routes per pair, a single separating set M supports
// a bipolar-style routing:
//
//	MULT 1: a tree routing from each x ∉ M to M;
//	MULT 2: tree routings from each m ∈ M to Γ(m') for every m' ∈ M
//	        (degenerating to direct edges for adjacent members);
//	MULT 3: direct edge routes.
//
// The paper states the construction and leaves its bound implicit ("a
// routing similar to the bipolar routing"); by the bipolar argument the
// surviving diameter is at most 4, which experiment E11 verifies
// empirically.
func TwoRouteMultirouting(g *graph.Graph, opts Options) (*routing.MultiRouting, *MultiInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	sep, err := resolveSeparator(g, opts)
	if err != nil {
		return nil, nil, err
	}
	if len(sep) < t+1 {
		return nil, nil, fmt.Errorf("%w: separator size %d < t+1", ErrConnectivity, len(sep))
	}
	inM := graph.NewBitset(g.N())
	for _, v := range sep {
		inM.Add(v)
	}
	m := routing.NewMulti(g, 2, true)
	// Component MULT 1.
	mult1 := newTreeJobs(g, t+1)
	into := mult1.addSet(sep)
	for x := 0; x < g.N(); x++ {
		if !inM.Has(x) {
			mult1.add(x, into)
		}
	}
	if err := mult1.install(m.Add); err != nil {
		return nil, nil, err
	}
	// Component MULT 2: m_i to the neighborhood of every other member
	// (target set j is Γ(m_j)). Unlike the bipolar construction, the
	// Γ(m_j) sets of a separating set may overlap, so a pair can be
	// offered more than two routes; the paper's two-route budget is
	// honored by keeping the first two (AddCapped). Experiment E11
	// measures the resulting tolerance.
	mult2 := newTreeJobs(g, t+1)
	for _, mj := range sep {
		mult2.addSet(g.Neighbors(mj))
	}
	for _, mi := range sep {
		for j, mj := range sep {
			if mi == mj || g.HasEdge(mi, mj) {
				// Adjacent members reach each other via MULT 3 directly.
				continue
			}
			mult2.add(mi, j)
		}
	}
	err = mult2.install(func(p routing.Path) error {
		_, err := m.AddCapped(p)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	// Component MULT 3.
	for _, e := range g.Edges() {
		if err := m.Add(routing.Path{e[0], e[1]}); err != nil {
			return nil, nil, err
		}
	}
	return m, &MultiInfo{T: t, Limit: 2, Bound: 4, M: sep}, nil
}
