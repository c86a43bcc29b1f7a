// Package connectivity computes vertex connectivity, minimum vertex
// separators and internally node-disjoint paths, the structural
// primitives on which all of the paper's routings are built.
//
// All computations use the standard vertex-splitting reduction to
// maximum flow: each node v becomes v_in → v_out with capacity 1, each
// undirected edge {u,v} becomes u_out → v_in and v_out → u_in with
// capacity 1 (unit edge capacities suffice because node-disjoint paths
// can never share an edge).
package connectivity

import (
	"errors"
	"fmt"

	"ftroute/internal/flow"
	"ftroute/internal/graph"
)

// Errors returned by the connectivity computations.
var (
	// ErrAdjacent indicates an s–t connectivity query on adjacent nodes,
	// for which internally-disjoint-path counting is unbounded.
	ErrAdjacent = errors.New("connectivity: nodes are adjacent")
	// ErrTooFewPaths indicates that the requested number of disjoint
	// paths does not exist.
	ErrTooFewPaths = errors.New("connectivity: too few disjoint paths")
	// ErrComplete indicates that the graph has no non-adjacent pair, so
	// no separating set exists.
	ErrComplete = errors.New("connectivity: graph is complete")
)

// inNode and outNode map original node ids to the split network's ids.
func inNode(v int) int  { return 2 * v }
func outNode(v int) int { return 2*v + 1 }

// internalArc is the id of v's internal arc v_in → v_out. Every split
// network adds the internal arcs first, in node order.
func internalArc(v int) int { return 2 * v }

// stNetwork is the vertex-split flow network of g with unit internal
// arcs, built once and shared by every s–t flow of one query: each flow
// restores the capacities and opens the internal arcs of s and t with
// two SetCap calls, so s and t can anchor any number of paths. Edge
// arcs get capacity edgeCap: pass flow.Inf when s and t are guaranteed
// non-adjacent, which confines every minimum cut to internal arcs and
// makes vertex-separator extraction exact; pass 1 for networks whose
// flow will be decomposed into paths (a direct s–t edge must not be
// reused).
type stNetwork struct {
	g  *graph.Graph
	nw *flow.Network
}

func newSTNetwork(g *graph.Graph, edgeCap int) *stNetwork {
	n := g.N()
	edges := g.Edges()
	nw := flow.NewNetwork(2 * n)
	nw.Grow(n + 2*len(edges))
	for v := 0; v < n; v++ {
		nw.AddArc(inNode(v), outNode(v), 1)
	}
	for _, e := range edges {
		nw.AddArc(outNode(e[0]), inNode(e[1]), edgeCap)
		nw.AddArc(outNode(e[1]), inNode(e[0]), edgeCap)
	}
	nw.Snapshot()
	return &stNetwork{g: g, nw: nw}
}

// checkPair rejects s–t queries on nodes outside g or with s == t.
func checkPair(g *graph.Graph, s, t int) error {
	for _, v := range [2]int{s, t} {
		if v < 0 || v >= g.N() {
			return fmt.Errorf("connectivity: node %d out of range [0,%d)", v, g.N())
		}
	}
	if s == t {
		return fmt.Errorf("connectivity: s == t == %d", s)
	}
	return nil
}

// maxFlow returns the s–t flow, stopping once it reaches limit.
func (sn *stNetwork) maxFlow(s, t, limit int) int {
	sn.nw.Restore()
	sn.nw.SetCap(internalArc(s), flow.Inf)
	sn.nw.SetCap(internalArc(t), flow.Inf)
	return sn.nw.MaxFlow(outNode(s), inNode(t), limit)
}

// separator returns a minimum set of nodes other than s and t whose
// removal disconnects them; the network's edge arcs must be infinite.
func (sn *stNetwork) separator(s, t int) []int {
	sn.maxFlow(s, t, flow.Inf)
	seen := sn.nw.MinCutReachable(outNode(s))
	var cut []int
	for v := 0; v < sn.g.N(); v++ {
		if v == s || v == t {
			continue
		}
		// v is in the cut iff v_in is reachable but v_out is not: the
		// saturated internal arc crosses the cut.
		if seen[inNode(v)] && !seen[outNode(v)] {
			cut = append(cut, v)
		}
	}
	return cut
}

// STConnectivity returns the maximum number of internally node-disjoint
// s–t paths (equivalently, by Menger's theorem, the minimum number of
// nodes whose removal separates s from t). s and t must be distinct and
// non-adjacent nodes of g; adjacent pairs return ErrAdjacent.
func STConnectivity(g *graph.Graph, s, t int) (int, error) {
	if err := checkPair(g, s, t); err != nil {
		return 0, err
	}
	if g.HasEdge(s, t) {
		return 0, fmt.Errorf("%w: %d-%d", ErrAdjacent, s, t)
	}
	return newSTNetwork(g, flow.Inf).maxFlow(s, t, flow.Inf), nil
}

// STSeparator returns a minimum set of nodes (excluding s and t) whose
// removal disconnects s from t. s and t must be distinct and
// non-adjacent nodes of g.
func STSeparator(g *graph.Graph, s, t int) ([]int, error) {
	if err := checkPair(g, s, t); err != nil {
		return nil, err
	}
	if g.HasEdge(s, t) {
		return nil, fmt.Errorf("%w: %d-%d", ErrAdjacent, s, t)
	}
	return newSTNetwork(g, flow.Inf).separator(s, t), nil
}

// DisjointPaths returns k internally node-disjoint paths from s to t,
// each a node sequence starting at s and ending at t. If fewer than k
// exist it returns ErrTooFewPaths. Unlike STConnectivity, s and t may be
// adjacent; the direct edge counts as one path.
func DisjointPaths(g *graph.Graph, s, t, k int) ([][]int, error) {
	if err := checkPair(g, s, t); err != nil {
		return nil, err
	}
	sn := newSTNetwork(g, 1)
	got := sn.maxFlow(s, t, k)
	if got < k {
		return nil, fmt.Errorf("%w: want %d, have %d between %d and %d", ErrTooFewPaths, k, got, s, t)
	}
	raw := sn.nw.DecomposePaths(outNode(s), inNode(t), k)
	paths := make([][]int, len(raw))
	for i, rp := range raw {
		paths[i] = unsplit(rp)
	}
	return paths, nil
}

// unsplit converts a path over split ids (alternating v_out, w_in, w_out,
// ...) back to original node ids, removing consecutive duplicates.
func unsplit(rp []int) []int {
	var out []int
	for _, x := range rp {
		v := x / 2
		if len(out) == 0 || out[len(out)-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// VertexConnectivity returns κ(G) together with one minimum separating
// set of size κ(G). For complete graphs it returns (n-1, nil, ErrComplete)
// since no separating set exists. Disconnected graphs return κ = 0 with
// an empty separator. Graphs with fewer than two nodes return n-1
// (i.e. 0 for a single node) and ErrComplete.
//
// The algorithm fixes a minimum-degree vertex v and takes the minimum of
// (a) max-flow between v and each non-neighbor, and (b) max-flow between
// each non-adjacent pair of neighbors of v. A minimum separator S with
// |S| < deg(v)+1 either misses v — then v is separated from some
// non-neighbor — or contains v — then, S being minimal, v has neighbors
// in two different components of G−S, and some non-adjacent pair of
// neighbors of v is separated by S.
func VertexConnectivity(g *graph.Graph) (int, []int, error) {
	n := g.N()
	if n <= 1 {
		return maxInt(0, n-1), nil, ErrComplete
	}
	if !g.IsConnected(nil) {
		return 0, []int{}, nil
	}
	// Fix a minimum-degree vertex.
	v := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) < g.Degree(v) {
			v = u
		}
	}
	// Every flow runs on one shared split network. A flow only has to
	// beat the best so far, so each is capped there: a capped value
	// never replaces the incumbent, and an uncapped one is exact.
	sn := newSTNetwork(g, flow.Inf)
	best := n - 1
	var bestPair [2]int
	havePair := false
	consider := func(s, t int) {
		if g.HasEdge(s, t) || s == t {
			return
		}
		if k := sn.maxFlow(s, t, best); k < best || !havePair {
			best = k
			bestPair = [2]int{s, t}
			havePair = true
		}
	}
	for u := 0; u < n; u++ {
		if u != v {
			consider(v, u)
		}
	}
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			consider(nbrs[i], nbrs[j])
		}
	}
	if !havePair {
		// No non-adjacent pair anywhere we probed; the graph is complete.
		return n - 1, nil, ErrComplete
	}
	return best, sn.separator(bestPair[0], bestPair[1]), nil
}

// IsKConnected reports whether g is k-node-connected, using flows capped
// at k so it is cheaper than computing κ exactly. By convention, a graph
// is k-connected iff it has more than k nodes and no separator of size
// < k; complete graphs K_n are (n-1)-connected.
func IsKConnected(g *graph.Graph, k int) (bool, error) {
	if k <= 0 {
		return true, nil
	}
	n := g.N()
	if n <= k {
		return false, nil
	}
	if !g.IsConnected(nil) {
		return false, nil
	}
	v := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) < g.Degree(v) {
			v = u
		}
	}
	if g.Degree(v) < k {
		return false, nil
	}
	sn := newSTNetwork(g, flow.Inf)
	check := func(s, t int) bool {
		return s == t || g.HasEdge(s, t) || sn.maxFlow(s, t, k) >= k
	}
	for u := 0; u < n; u++ {
		if u != v && !check(v, u) {
			return false, nil
		}
	}
	nbrs := g.Neighbors(v)
	for i := 0; i < len(nbrs); i++ {
		for j := i + 1; j < len(nbrs); j++ {
			if !check(nbrs[i], nbrs[j]) {
				return false, nil
			}
		}
	}
	return true, nil
}

// MinimumSeparator returns a minimum separating set of g (size κ(G)).
// Complete graphs return ErrComplete.
func MinimumSeparator(g *graph.Graph) ([]int, error) {
	_, sep, err := VertexConnectivity(g)
	if err != nil {
		return nil, err
	}
	return sep, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
