package connectivity

import (
	"fmt"

	"ftroute/internal/flow"
	"ftroute/internal/graph"
)

// ToSet is the Lemma 2 flow network for one target set M, built and
// validated once: the vertex-split network of g in which every member's
// in-node feeds a super-sink and its out-node is cut off, so that flow
// stops at the first member it reaches. Paths then answers any source x
// outside M on the same arcs, restoring the capacities and opening x's
// internal arc instead of building a new network.
//
// A ToSet is not safe for concurrent use; give each goroutine its own.
type ToSet struct {
	g    *graph.Graph
	inM  *graph.Bitset
	nw   *flow.Network
	sink int
}

// NewToSet builds the Lemma 2 network of g for the target set members.
// Members must be distinct nodes of g.
func NewToSet(g *graph.Graph, members []int) (*ToSet, error) {
	n := g.N()
	inM := graph.NewBitset(n)
	for _, m := range members {
		if m < 0 || m >= n {
			return nil, fmt.Errorf("connectivity: target node %d out of range [0,%d)", m, n)
		}
		if inM.Has(m) {
			return nil, fmt.Errorf("connectivity: target node %d listed twice", m)
		}
		inM.Add(m)
	}
	edges := g.Edges()
	nw := flow.NewNetwork(2*n + 1)
	nw.Grow(n + len(members) + 2*len(edges))
	sink := 2 * n
	for v := 0; v < n; v++ {
		c := 1
		if inM.Has(v) {
			c = 0 // flow must not pass through a member
		}
		nw.AddArc(inNode(v), outNode(v), c)
	}
	for _, m := range members {
		nw.AddArc(inNode(m), sink, 1)
	}
	for _, e := range edges {
		nw.AddArc(outNode(e[0]), inNode(e[1]), 1)
		nw.AddArc(outNode(e[1]), inNode(e[0]), 1)
	}
	nw.Snapshot()
	return &ToSet{g: g, inM: inM, nw: nw, sink: sink}, nil
}

// Paths returns k paths from x to k distinct members of the target set,
// with the guarantees of DisjointPathsToSet. x must be a node of g
// outside the set.
func (ts *ToSet) Paths(x, k int) ([][]int, error) {
	if x < 0 || x >= ts.g.N() {
		return nil, fmt.Errorf("connectivity: source node %d out of range [0,%d)", x, ts.g.N())
	}
	if ts.inM.Has(x) {
		return nil, fmt.Errorf("connectivity: x=%d is a member of the target set", x)
	}
	if k <= 0 {
		return nil, nil
	}
	ts.nw.Restore()
	ts.nw.SetCap(internalArc(x), flow.Inf)
	got := ts.nw.MaxFlow(outNode(x), ts.sink, k)
	if got < k {
		return nil, fmt.Errorf("%w: want %d node-disjoint paths from %d to set, have %d", ErrTooFewPaths, k, x, got)
	}
	raw := ts.nw.DecomposePaths(outNode(x), ts.sink, k)
	paths := make([][]int, len(raw))
	for i, rp := range raw {
		// Drop the super-sink element before unsplitting.
		p := unsplit(rp[:len(rp)-1])
		// Direct edge shortcut: if x is adjacent to the endpoint, the
		// route is the single edge. This preserves mutual disjointness
		// because the replacement uses no nodes beyond x and the
		// endpoint, both already on the original path.
		end := p[len(p)-1]
		if len(p) > 2 && ts.g.HasEdge(x, end) {
			p = []int{x, end}
		}
		paths[i] = p
	}
	return paths, nil
}

// DisjointPathsToSet implements the primitive behind the paper's tree
// routings (Lemma 2): it returns k paths from x to k distinct nodes of
// the set M such that
//
//   - the paths are pairwise node-disjoint except at x,
//   - every internal node of every path lies outside M (each path stops
//     at its *first* node of M), and
//   - if x has a direct edge to the endpoint of a path, the path is that
//     single edge (the "direct edge shortcut" required by the definition
//     of tree routings).
//
// x must be a node outside M, and the members of M distinct nodes of g;
// anything else is an error. If fewer than k such paths exist (which
// cannot happen when M separates x from some node and the graph is
// k-connected), it returns ErrTooFewPaths. Callers with many sources for
// one set should build a ToSet once instead.
func DisjointPathsToSet(g *graph.Graph, x int, members []int, k int) ([][]int, error) {
	ts, err := NewToSet(g, members)
	if err != nil {
		return nil, err
	}
	return ts.Paths(x, k)
}

// Endpoints returns the final node of each path, in path order.
func Endpoints(paths [][]int) []int {
	out := make([]int, len(paths))
	for i, p := range paths {
		out[i] = p[len(p)-1]
	}
	return out
}
