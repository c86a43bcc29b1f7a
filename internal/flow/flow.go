// Package flow implements Dinic's maximum-flow algorithm on small
// integer-capacity networks. It is the substrate for every Menger-style
// computation in the library: s–t vertex connectivity, minimum vertex
// separators, internally disjoint paths, and the paper's tree routings
// (node-disjoint paths from a node to a separating set).
//
// Networks here are unit-ish: capacities are 1 except for a handful of
// infinite arcs, so Dinic runs in O(E·sqrt(V)) which is far more than
// fast enough for the graph sizes the reproduction uses.
//
// A network is built once and may be solved many times: Snapshot records
// the capacities, and Restore followed by a few SetCap calls turns the
// same arcs into the next flow problem without rebuilding anything. The
// Lemma 2 and connectivity computations run every flow of one target set
// or one κ(G) query on a single network this way.
package flow

import (
	"fmt"
	"math"
)

// Inf is the capacity used for effectively-unbounded arcs.
const Inf = math.MaxInt32

// arc is half of an edge pair; arcs are stored in a flat slice with the
// reverse arc at index ^1.
type arc struct {
	to  int32
	cap int32
}

// Network is a directed flow network. The zero value is unusable; create
// one with NewNetwork.
//
// Arcs are kept in insertion order. The per-node adjacency is a CSR
// index (start, adj) built on the first traversal after an AddArc; each
// node lists its arcs in the order they were added, so the flow and the
// path decomposition do not depend on how the network was stored.
type Network struct {
	n     int
	arcs  []arc
	saved []arc // capacities recorded by Snapshot

	start []int32 // adj[start[u]:start[u+1]] are the arcs leaving u
	adj   []int32

	// Scratch reused across MaxFlow and DecomposePaths calls.
	level    []int32
	iter     []int32
	queue    []int32
	flowLeft []int32
}

// NewNetwork returns an empty network with n nodes.
func NewNetwork(n int) *Network {
	if n < 0 {
		panic("flow: negative node count")
	}
	return &Network{n: n}
}

// N returns the number of nodes.
func (nw *Network) N() int { return nw.n }

// Grow reserves room for arcs more AddArc calls, so a network whose size
// is known up front is built without reallocating.
func (nw *Network) Grow(arcs int) {
	if need := len(nw.arcs) + 2*arcs; need > cap(nw.arcs) {
		grown := make([]arc, len(nw.arcs), need)
		copy(grown, nw.arcs)
		nw.arcs = grown
	}
}

// AddArc inserts a directed arc u→v with the given capacity and returns
// its index (usable with Flow and SetCap). Capacity must be
// non-negative.
func (nw *Network) AddArc(u, v, capacity int) int {
	if u < 0 || u >= nw.n || v < 0 || v >= nw.n {
		panic(fmt.Sprintf("flow: arc %d->%d out of range (n=%d)", u, v, nw.n))
	}
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	id := len(nw.arcs)
	nw.arcs = append(nw.arcs, arc{to: int32(v), cap: int32(capacity)}, arc{to: int32(u), cap: 0})
	nw.adj = nil // the CSR index is stale
	return id
}

// index builds the CSR adjacency if an AddArc invalidated it. Arc id
// leaves node arcs[id^1].to; a counting sort over increasing ids keeps
// every node's arcs in insertion order.
func (nw *Network) index() {
	if nw.adj != nil {
		return
	}
	if len(nw.start) != nw.n+1 {
		nw.start = make([]int32, nw.n+1)
	} else {
		clear(nw.start)
	}
	for id := range nw.arcs {
		nw.start[nw.arcs[id^1].to+1]++
	}
	for u := 0; u < nw.n; u++ {
		nw.start[u+1] += nw.start[u]
	}
	nw.adj = make([]int32, len(nw.arcs))
	fill := make([]int32, nw.n)
	copy(fill, nw.start[:nw.n])
	for id := range nw.arcs {
		u := nw.arcs[id^1].to
		nw.adj[fill[u]] = int32(id)
		fill[u]++
	}
}

// out returns the ids of the arcs leaving u, in insertion order.
func (nw *Network) out(u int32) []int32 {
	return nw.adj[nw.start[u]:nw.start[u+1]]
}

// Flow returns the amount of flow pushed through the arc with the given
// index after MaxFlow has run: the residual capacity of the reverse arc.
func (nw *Network) Flow(arcID int) int {
	return int(nw.arcs[arcID^1].cap)
}

// SetCap sets the capacity of arc arcID and clears its reverse arc. Call
// it on a network that carries no flow: a fresh one, or one just reset
// by Restore.
func (nw *Network) SetCap(arcID, capacity int) {
	if capacity < 0 {
		panic("flow: negative capacity")
	}
	nw.arcs[arcID].cap = int32(capacity)
	nw.arcs[arcID^1].cap = 0
}

// Snapshot records the current capacities so that Restore can return to
// them after a MaxFlow.
func (nw *Network) Snapshot() {
	nw.saved = append(nw.saved[:0], nw.arcs...)
}

// Restore resets every capacity to the last Snapshot, undoing all flow
// and SetCap calls since. Arcs added after the Snapshot keep their
// current capacities.
func (nw *Network) Restore() {
	copy(nw.arcs, nw.saved)
}

// bfsLevels builds the level graph; returns false if t is unreachable.
// It stops as soon as t is labeled: the blocking-flow search only
// follows arcs one level up, so a node left unlabeled then (at t's level
// or beyond) could not have reached t, and no augmenting path changes.
func (nw *Network) bfsLevels(s, t int) bool {
	for i := range nw.level {
		nw.level[i] = -1
	}
	queue := nw.queue[:0]
	nw.level[s] = 0
	queue = append(queue, int32(s))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, id := range nw.out(u) {
			a := nw.arcs[id]
			if a.cap > 0 && nw.level[a.to] < 0 {
				nw.level[a.to] = nw.level[u] + 1
				if int(a.to) == t {
					nw.queue = queue
					return true
				}
				queue = append(queue, a.to)
			}
		}
	}
	nw.queue = queue
	return false
}

// dfsAugment pushes up to limit units of flow from u toward t along the
// level graph.
func (nw *Network) dfsAugment(u, t int32, limit int32) int32 {
	if u == t {
		return limit
	}
	out := nw.out(u)
	for ; nw.iter[u] < int32(len(out)); nw.iter[u]++ {
		id := out[nw.iter[u]]
		a := &nw.arcs[id]
		if a.cap <= 0 || nw.level[a.to] != nw.level[u]+1 {
			continue
		}
		push := limit
		if a.cap < push {
			push = a.cap
		}
		got := nw.dfsAugment(a.to, t, push)
		if got > 0 {
			a.cap -= got
			nw.arcs[id^1].cap += got
			return got
		}
	}
	return 0
}

// MaxFlow computes the maximum s–t flow, stopping early once the flow
// reaches limit (pass Inf for the true maximum). It adds to the flow
// already in the network's residual capacities; call Restore first to
// solve a new problem on the same arcs.
func (nw *Network) MaxFlow(s, t, limit int) int {
	if s == t {
		return 0
	}
	nw.index()
	if len(nw.level) != nw.n {
		nw.level = make([]int32, nw.n)
		nw.iter = make([]int32, nw.n)
		nw.queue = make([]int32, 0, nw.n)
	}
	total := 0
	for total < limit && nw.bfsLevels(s, t) {
		clear(nw.iter)
		for total < limit {
			got := nw.dfsAugment(int32(s), int32(t), int32(min(limit-total, Inf)))
			if got == 0 {
				break
			}
			total += int(got)
		}
	}
	return total
}

// MinCutReachable returns, after MaxFlow, the set of nodes reachable from
// s in the residual network. Arcs from reachable to unreachable nodes
// form a minimum cut.
func (nw *Network) MinCutReachable(s int) []bool {
	nw.index()
	seen := make([]bool, nw.n)
	queue := []int32{int32(s)}
	seen[s] = true
	for head := 0; head < len(queue); head++ {
		for _, id := range nw.out(queue[head]) {
			a := nw.arcs[id]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	return seen
}

// DecomposePaths extracts flow units as node paths from s to t, reading
// the flow recorded on forward arcs (the network itself is unchanged).
// It returns up to max paths (pass a negative max for all). Each
// returned path starts at s and ends at t. The decomposition is valid
// for the unit-capacity networks used in this library (each interior
// node carries at most one unit). s == t carries no flow and yields no
// paths.
func (nw *Network) DecomposePaths(s, t, max int) [][]int {
	if s == t {
		return nil
	}
	nw.index()
	// flowLeft[arcID] = units of flow assigned to this forward arc.
	if len(nw.flowLeft) != len(nw.arcs) {
		nw.flowLeft = make([]int32, len(nw.arcs))
	}
	flowLeft := nw.flowLeft
	for id := 0; id < len(nw.arcs); id += 2 {
		flowLeft[id] = nw.arcs[id^1].cap // reverse residual == pushed flow
	}
	var paths [][]int
	for max < 0 || len(paths) < max {
		path := []int{s}
		u := s
		ok := false
		for steps := 0; steps <= len(nw.arcs); steps++ {
			if u == t {
				ok = true
				break
			}
			advanced := false
			for _, id := range nw.out(int32(u)) {
				if id%2 == 1 || flowLeft[id] == 0 {
					continue
				}
				flowLeft[id]--
				u = int(nw.arcs[id].to)
				path = append(path, u)
				advanced = true
				break
			}
			if !advanced {
				break
			}
		}
		if !ok {
			break
		}
		paths = append(paths, path)
	}
	return paths
}
