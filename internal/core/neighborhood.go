// Package core implements the fault-tolerant routing constructions of
// Peleg and Simons, "On Fault Tolerant Routings in General Networks"
// (PODC 1986 / Information and Computation 74, 1987):
//
//   - the kernel routing of Dolev et al. (Theorems 3 and 4),
//   - the circular routing (Section 4, Figure 1, Theorem 10),
//   - the tri-circular routing (Section 4, Figure 2, Theorem 13 and
//     Remark 14),
//   - the unidirectional and bidirectional bipolar routings (Section 5,
//     Figure 3, Theorems 20 and 23), together with two-trees detection,
//   - neighborhood sets via the greedy algorithm of Lemma 15, plus a
//     Hamming-code neighborhood set for hypercubes,
//   - the multirouting and network-modification variants of Section 6.
//
// Throughout, t denotes connectivity minus one: a (t+1)-connected graph
// tolerates up to t faults.
package core

import (
	"errors"
	"fmt"
	"sort"

	"ftroute/internal/graph"
)

// Errors reported by the constructions.
var (
	// ErrNotApplicable indicates the graph lacks the structural property
	// a construction requires (neighborhood set too small, no two-trees
	// pair, etc.).
	ErrNotApplicable = errors.New("core: construction not applicable")
	// ErrConnectivity indicates the graph is not at least 2-connected or
	// the caller-supplied connectivity is inconsistent.
	ErrConnectivity = errors.New("core: unusable connectivity")
)

// NeighborhoodSet returns a maximal "neighborhood set" M of g found by
// the greedy algorithm of Lemma 15: a set of independent nodes with
// pairwise disjoint neighbor sets (equivalently, nodes at pairwise
// distance at least 3). The greedy algorithm guarantees
// |M| >= ceil(n/(d^2+1)) where d is the maximum degree.
//
// Candidates are consumed in ascending-degree order, which tends to
// produce larger sets on irregular graphs while preserving the lemma's
// bound (the proof works for any consumption order).
func NeighborhoodSet(g *graph.Graph) []int {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return g.Degree(order[a]) < g.Degree(order[b])
	})
	removed := graph.NewBitset(n)
	var m []int
	for _, x := range order {
		if removed.Has(x) {
			continue
		}
		m = append(m, x)
		// Remove the ball of radius 2 around x.
		removed.Add(x)
		g.EachNeighbor(x, func(v int) bool {
			removed.Add(v)
			g.EachNeighbor(v, func(w int) bool {
				removed.Add(w)
				return true
			})
			return true
		})
	}
	sort.Ints(m)
	return m
}

// NeighborhoodSetAtLeast returns a neighborhood set of size exactly k
// (greedy result truncated), or ErrNotApplicable if the greedy set is
// smaller than k.
func NeighborhoodSetAtLeast(g *graph.Graph, k int) ([]int, error) {
	m := NeighborhoodSet(g)
	if len(m) < k {
		return nil, fmt.Errorf("%w: neighborhood set has %d nodes, need %d", ErrNotApplicable, len(m), k)
	}
	return m[:k], nil
}

// GreedyNeighborhoodBound returns the guaranteed lower bound of Lemma 15
// on the size of a greedy neighborhood set: ceil(n/(d^2+1)).
func GreedyNeighborhoodBound(n, maxDegree int) int {
	den := maxDegree*maxDegree + 1
	return (n + den - 1) / den
}

// CheckNeighborhoodSet verifies the defining property of a neighborhood
// set: members are distinct nodes of g, pairwise non-adjacent, with
// pairwise disjoint neighbor sets. It returns nil if the property holds.
func CheckNeighborhoodSet(g *graph.Graph, m []int) error {
	n := g.N()
	owner := make([]int, n)
	for i := range owner {
		owner[i] = -1
	}
	inM := graph.NewBitset(n)
	for _, x := range m {
		if x < 0 || x >= n {
			return fmt.Errorf("core: neighborhood set member %d out of range [0,%d)", x, n)
		}
		if inM.Has(x) {
			return fmt.Errorf("core: neighborhood set member %d listed twice", x)
		}
		inM.Add(x)
	}
	for _, x := range m {
		var fail error
		g.EachNeighbor(x, func(v int) bool {
			if inM.Has(v) {
				fail = fmt.Errorf("core: neighborhood set members %d and %d are adjacent", x, v)
				return false
			}
			if owner[v] != -1 {
				fail = fmt.Errorf("core: node %d is a neighbor of both %d and %d", v, owner[v], x)
				return false
			}
			owner[v] = x
			return true
		})
		if fail != nil {
			return fail
		}
	}
	return nil
}

// HammingNeighborhoodSet returns a neighborhood set for the hypercube
// Q_d when d = 2^r - 1 (d = 3, 7, 15, ...): the perfect Hamming code of
// length d, whose 2^d/(d+1) codewords are at pairwise Hamming distance
// >= 3 and therefore form an independent set with disjoint
// neighborhoods. This beats the greedy bound of Lemma 15 and makes the
// circular routing applicable to hypercubes of moderate dimension
// (e.g. Q7: 16 codewords >= 2t+1 = 13).
func HammingNeighborhoodSet(d int) ([]int, error) {
	r := 0
	for (1<<uint(r))-1 < d {
		r++
	}
	if (1<<uint(r))-1 != d {
		return nil, fmt.Errorf("%w: Hamming code needs d = 2^r - 1, got %d", ErrNotApplicable, d)
	}
	// Parity-check matrix columns are 1..d; codeword x satisfies
	// xor of the column indices of set bits == 0.
	var code []int
	for x := 0; x < 1<<uint(d); x++ {
		syndrome := 0
		for b := 0; b < d; b++ {
			if x&(1<<uint(b)) != 0 {
				syndrome ^= b + 1
			}
		}
		if syndrome == 0 {
			code = append(code, x)
		}
	}
	return code, nil
}
