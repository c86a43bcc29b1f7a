package core

import (
	"fmt"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// CircularInfo describes a constructed circular routing.
type CircularInfo struct {
	T int   // tolerated faults; the routing is (6, t)-tolerant
	K int   // concentrator size actually used
	M []int // the neighborhood set m_0..m_{K-1}
}

// circularK returns the concentrator size the circular construction
// needs: 2t+1 by default (Lemma 7), or the minimum from Lemma 9 (t+1
// for even t, t+2 for odd t). Both are odd, which keeps the forward
// ranges of Component CIRC 2 conflict-free.
func circularK(t int, minimal bool) int {
	if !minimal {
		return 2*t + 1
	}
	if t%2 == 0 {
		return t + 1
	}
	return t + 2
}

// Circular builds the bidirectional circular routing of Section 4
// (Figure 1): a neighborhood set M = {m_0,...,m_{K-1}} acts as the
// concentrator, with Γ_i = Γ(m_i) its (pairwise disjoint) neighbor
// sets. Components:
//
//	CIRC 1: every x ∉ Γ has a tree routing to every Γ_i;
//	CIRC 2: every x ∈ Γ_i has tree routings to Γ_{(i+j) mod K} for
//	        1 <= j <= ⌈K/2⌉-1;
//	CIRC 3: every adjacent pair uses the direct edge route.
//
// By Theorem 10 the result is (6, t)-tolerant.
func Circular(g *graph.Graph, opts Options) (*routing.Routing, *CircularInfo, error) {
	t, err := resolveTolerance(g, opts)
	if err != nil {
		return nil, nil, err
	}
	k := circularK(t, opts.MinimalK)
	m := opts.Concentrator
	if m == nil {
		m, err = NeighborhoodSetAtLeast(g, k)
		if err != nil {
			return nil, nil, err
		}
	} else {
		if len(m) < k {
			return nil, nil, fmt.Errorf("%w: concentrator size %d < required K = %d", ErrNotApplicable, len(m), k)
		}
		m = m[:k]
		if err := CheckNeighborhoodSet(g, m); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrNotApplicable, err)
		}
	}
	r := routing.NewBidirectional(g)
	if err := buildCircularComponents(r, g, m, t, true); err != nil {
		return nil, nil, err
	}
	// Component CIRC 3.
	if err := r.AddEdgeRoutes(); err != nil {
		return nil, nil, err
	}
	return r, &CircularInfo{T: t, K: k, M: m}, nil
}

// buildCircularComponents installs Components CIRC 1 and CIRC 2 over the
// ring m (whose neighbor sets are the Γ_i). When treesFromOutside is
// true it includes CIRC 1 (tree routings from every node outside Γ to
// every set); the tri-circular construction reuses only the in-ring
// component with its own cross-ring logic.
func buildCircularComponents(r *routing.Routing, g *graph.Graph, m []int, t int, treesFromOutside bool) error {
	k := len(m)
	trees := newTreeJobs(g, t+1)     // target set i is Γ_i
	memberRing := make([]int, g.N()) // ring index of each node in Γ, else -1
	for i := range memberRing {
		memberRing[i] = -1
	}
	for i, mi := range m {
		gamma := g.Neighbors(mi)
		trees.addSet(gamma)
		for _, v := range gamma {
			memberRing[v] = i
		}
	}
	forward := (k+1)/2 - 1 // ⌈K/2⌉ - 1
	for x := 0; x < g.N(); x++ {
		ring := memberRing[x]
		if ring == -1 {
			if !treesFromOutside {
				continue
			}
			// Component CIRC 1: x ∉ Γ routes to every Γ_i.
			for i := 0; i < k; i++ {
				trees.add(x, i)
			}
			continue
		}
		// Component CIRC 2: x ∈ Γ_i routes forward around the ring.
		for j := 1; j <= forward; j++ {
			trees.add(x, (ring+j)%k)
		}
	}
	return trees.install(r.Set)
}
