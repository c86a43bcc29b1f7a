package connectivity

import (
	"fmt"

	"ftroute/internal/flow"
	"ftroute/internal/graph"
)

// The reference below is the Lemma 2 and κ code as it was before
// network reuse: a fresh split network per call, stored as per-node
// arc lists, solved by a plain Dinic whose level BFS visits the whole
// residual graph. The production code must reproduce its paths,
// separators and errors exactly.

type refArc struct{ to, cap int32 }

type refNetwork struct {
	arcs  []refArc
	head  [][]int32
	level []int32
	iter  []int32
}

func newRefNetwork(n int) *refNetwork { return &refNetwork{head: make([][]int32, n)} }

func (nw *refNetwork) addArc(u, v, c int) {
	id := int32(len(nw.arcs))
	nw.arcs = append(nw.arcs, refArc{int32(v), int32(c)}, refArc{int32(u), 0})
	nw.head[u] = append(nw.head[u], id)
	nw.head[v] = append(nw.head[v], id+1)
}

func (nw *refNetwork) bfs(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	nw.level[s] = 0
	queue := []int32{int32(s)}
	for h := 0; h < len(queue); h++ {
		u := queue[h]
		for _, id := range nw.head[u] {
			if a := nw.arcs[id]; a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				queue = append(queue, a.to)
			}
		}
	}
	return nw.level[t] >= 0
}

func (nw *refNetwork) dfs(u, t int, limit int32) int32 {
	if u == t {
		return limit
	}
	for ; nw.iter[u] < int32(len(nw.head[u])); nw.iter[u]++ {
		id := nw.head[u][nw.iter[u]]
		a := &nw.arcs[id]
		if a.cap <= 0 || nw.level[a.to] != nw.level[u]+1 {
			continue
		}
		if got := nw.dfs(int(a.to), t, min(limit, a.cap)); got > 0 {
			a.cap -= got
			nw.arcs[id^1].cap += got
			return got
		}
	}
	return 0
}

func (nw *refNetwork) maxFlow(s, t, limit int) int {
	nw.level = make([]int32, len(nw.head))
	nw.iter = make([]int32, len(nw.head))
	total := 0
	for total < limit && nw.bfs(s, t) {
		clear(nw.iter)
		for total < limit {
			got := nw.dfs(s, t, int32(min(limit-total, flow.Inf)))
			if got == 0 {
				break
			}
			total += int(got)
		}
	}
	return total
}

func (nw *refNetwork) decompose(s, t, max int) [][]int {
	left := make([]int32, len(nw.arcs))
	for id := 0; id < len(nw.arcs); id += 2 {
		left[id] = nw.arcs[id+1].cap
	}
	var paths [][]int
	for len(paths) < max {
		path, u := []int{s}, s
		for u != t {
			next := -1
			for _, id := range nw.head[u] {
				if id%2 == 0 && left[id] > 0 {
					left[id]--
					next = int(nw.arcs[id].to)
					break
				}
			}
			if next < 0 {
				return paths
			}
			u = next
			path = append(path, u)
		}
		paths = append(paths, path)
	}
	return paths
}

// refSplit is the vertex-split network of g: internal arcs first (v's
// capacity from internal), then edge arcs of capacity edgeCap.
func refSplit(g *graph.Graph, extra int, edgeCap int, internal func(v int) int, between func(nw *refNetwork)) *refNetwork {
	nw := newRefNetwork(2*g.N() + extra)
	for v := 0; v < g.N(); v++ {
		nw.addArc(inNode(v), outNode(v), internal(v))
	}
	between(nw)
	for _, e := range g.Edges() {
		nw.addArc(outNode(e[0]), inNode(e[1]), edgeCap)
		nw.addArc(outNode(e[1]), inNode(e[0]), edgeCap)
	}
	return nw
}

// referencePathsToSet is DisjointPathsToSet on a fresh reference
// network. Members must be distinct nodes and x a node outside them.
func referencePathsToSet(g *graph.Graph, x int, members []int, k int) ([][]int, error) {
	inM := map[int]bool{}
	for _, m := range members {
		inM[m] = true
	}
	sink := 2 * g.N()
	nw := refSplit(g, 1, 1, func(v int) int {
		switch {
		case v == x:
			return flow.Inf
		case inM[v]:
			return 0
		}
		return 1
	}, func(nw *refNetwork) {
		for _, m := range members {
			nw.addArc(inNode(m), sink, 1)
		}
	})
	if got := nw.maxFlow(outNode(x), sink, k); got < k {
		return nil, fmt.Errorf("%w: want %d node-disjoint paths from %d to set, have %d", ErrTooFewPaths, k, x, got)
	}
	var paths [][]int
	for _, rp := range nw.decompose(outNode(x), sink, k) {
		p := unsplit(rp[:len(rp)-1])
		if end := p[len(p)-1]; len(p) > 2 && g.HasEdge(x, end) {
			p = []int{x, end}
		}
		paths = append(paths, p)
	}
	return paths, nil
}

// referenceSTNetwork is the s–t split network with s and t uncapped.
func referenceSTNetwork(g *graph.Graph, s, t, edgeCap int) *refNetwork {
	return refSplit(g, 0, edgeCap, func(v int) int {
		if v == s || v == t {
			return flow.Inf
		}
		return 1
	}, func(*refNetwork) {})
}

// referenceConnectivity is VertexConnectivity with one fresh network
// and an uncapped flow per pair, for a connected non-complete graph.
func referenceConnectivity(g *graph.Graph) (int, []int) {
	n := g.N()
	v := 0
	for u := 1; u < n; u++ {
		if g.Degree(u) < g.Degree(v) {
			v = u
		}
	}
	best, pair, have := n-1, [2]int{}, false
	consider := func(s, t int) {
		if s == t || g.HasEdge(s, t) {
			return
		}
		k := referenceSTNetwork(g, s, t, flow.Inf).maxFlow(outNode(s), inNode(t), flow.Inf)
		if k < best || !have {
			best, pair, have = k, [2]int{s, t}, true
		}
	}
	for u := 0; u < n; u++ {
		if u != v {
			consider(v, u)
		}
	}
	nbrs := g.Neighbors(v)
	for i := range nbrs {
		for j := i + 1; j < len(nbrs); j++ {
			consider(nbrs[i], nbrs[j])
		}
	}
	s, t := pair[0], pair[1]
	nw := referenceSTNetwork(g, s, t, flow.Inf)
	nw.maxFlow(outNode(s), inNode(t), flow.Inf)
	// Residual reachability from s_out.
	seen := make([]bool, len(nw.head))
	seen[outNode(s)] = true
	queue := []int{outNode(s)}
	for h := 0; h < len(queue); h++ {
		for _, id := range nw.head[queue[h]] {
			if a := nw.arcs[id]; a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, int(a.to))
			}
		}
	}
	var cut []int
	for u := 0; u < n; u++ {
		if u != s && u != t && seen[inNode(u)] && !seen[outNode(u)] {
			cut = append(cut, u)
		}
	}
	return best, cut
}
