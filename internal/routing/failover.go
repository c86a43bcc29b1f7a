package routing

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ftroute/internal/graph"
)

// This file implements static-failover forwarding: the table-level
// resilience model of Chiesa et al. ("Exploring the Limits of Static
// Failover Routing") layered over the paper's fixed routings. Where
// ForwardingTables hold exactly one next hop per (at, src, dst) decision,
// FailoverTables hold a *ranked* list: the primary route's hop first,
// then backups contributed by the pair's parallel routes. A switch that
// sees its preferred outgoing link (or neighbor) dead falls through to
// the next live entry — a purely local decision with no packet header
// rewriting and no global recomputation, which is exactly what deployed
// fast-reroute mechanisms do.
//
// Backups come from two sources:
//
//   - CompileFailover(m): each of a MultiRouting's parallel routes for a
//     pair contributes its next hop at every node it traverses, ranked in
//     route order (Section 6 multiroutings become failover tables
//     directly);
//   - Reinforce(r, k): Lenzen–Medina-style reinforcement ("Robust
//     Routing Made Easy") of a single routing — every pair keeps its
//     primary route and gains up to k backup routes, each a shortest
//     path avoiding the links used by the routes already chosen for the
//     pair, so successive backups survive the cuts that kill their
//     predecessors.
//
// Because the tables are static and forwarding is memoryless, a walk
// under a fixed fault set is deterministic, and exactly three outcomes
// are possible: the packet is Delivered, it hits a Blackhole (some node
// has no live entry for the pair), or it enters a forwarding Loop
// (revisits a node, hence cycles forever). WalkUnderFaults detects and
// classifies all three in at most AliveNodes hops. Chiesa et al. show
// static failover cannot always avoid the latter two once cuts exceed
// the routing's tolerance; package eval's link-cut adversary searches
// for the cut sets that trigger them.

// Outcome classifies one static-failover walk.
type Outcome int

const (
	// Delivered: the packet reached its destination.
	Delivered Outcome = iota
	// Blackhole: some node on the walk had no live next hop for the
	// pair (every entry pointed at a faulty link or node, or the node
	// held no entry at all).
	Blackhole
	// Loop: the walk revisited a node. Forwarding is deterministic
	// under a static fault set, so a revisit proves the packet would
	// cycle forever.
	Loop
	// Skipped: the pair was not walked at all because its source or
	// destination node is failed — there is no packet to forward.
	// WalkUnderFaults never returns it (a faulty endpoint blackholes
	// there); the mixed-fault adversary of package eval classifies such
	// pairs separately so killing a pair's own endpoints earns the
	// adversary no disruption credit.
	Skipped
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Delivered:
		return "delivered"
	case Blackhole:
		return "blackhole"
	case Loop:
		return "loop"
	case Skipped:
		return "skipped"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// FaultSet is a static set of faulty nodes and links, the environment a
// failover walk runs in. The zero value is unusable; create with
// NewFaultSet. Links are stored normalized, so {u,v} and {v,u} denote
// the same fault.
type FaultSet struct {
	nodes *graph.Bitset
	links map[EdgeFault]bool
}

// NewFaultSet returns an empty fault set over n nodes.
func NewFaultSet(n int) *FaultSet {
	return &FaultSet{nodes: graph.NewBitset(n), links: make(map[EdgeFault]bool)}
}

// FaultSetOf returns a fault set with the given faulty nodes and links.
func FaultSetOf(n int, nodes []int, links []EdgeFault) *FaultSet {
	f := NewFaultSet(n)
	for _, v := range nodes {
		f.FailNode(v)
	}
	for _, e := range links {
		f.FailLink(e.U, e.V)
	}
	return f
}

// FailNode marks v faulty.
func (f *FaultSet) FailNode(v int) { f.nodes.Add(v) }

// RepairNode clears v's fault.
func (f *FaultSet) RepairNode(v int) { f.nodes.Remove(v) }

// FailLink marks the undirected link {u, v} faulty.
func (f *FaultSet) FailLink(u, v int) { f.links[EdgeFault{U: u, V: v}.Normalize()] = true }

// RepairLink clears the link fault on {u, v}.
func (f *FaultSet) RepairLink(u, v int) { delete(f.links, EdgeFault{U: u, V: v}.Normalize()) }

// NodeFaulty reports whether v is faulty.
func (f *FaultSet) NodeFaulty(v int) bool { return f.nodes.Has(v) }

// LinkFaulty reports whether the link {u, v} is faulty.
func (f *FaultSet) LinkFaulty(u, v int) bool { return f.links[EdgeFault{U: u, V: v}.Normalize()] }

// NodeFaults returns the faulty nodes as a bitset copy.
func (f *FaultSet) NodeFaults() *graph.Bitset { return f.nodes.Clone() }

// LinkFaults returns the faulty links, normalized and sorted.
func (f *FaultSet) LinkFaults() []EdgeFault {
	out := make([]EdgeFault, 0, len(f.links))
	for e := range f.links {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

// WalkResult reports one static-failover walk.
type WalkResult struct {
	Outcome Outcome
	// Path is the node sequence traversed: from src up to the
	// destination (Delivered), the node with no live entry (Blackhole),
	// or the first revisited node (Loop).
	Path Path
	// Hops is len(Path)-1: link traversals before the outcome.
	Hops int
	// Failovers counts hops that used a backup (rank > 0) entry.
	Failovers int
}

// FailoverTables hold, per (at-node, src, dst), a ranked list of next
// hops: the primary route's hop first, backups after it in route order.
// The layout is flat: the routed pairs sorted by (src, dst) with
// per-source offsets, each pair owning an at-sorted run of decisions,
// each decision owning a run of ranked next hops. Package eval's
// WalkEngine walks these arrays in place (see Layout). The tables are
// immutable after compilation and safe for concurrent walks.
type FailoverTables struct {
	n       int
	srcOff  []int32    // node -> first index in pairs with that source, len n+1
	pairs   [][2]int32 // ordered pairs with at least one route, sorted
	entOff  []int32    // pair -> range in entAt/hopOff, len P+1
	entAt   []int32    // decision -> at-node, sorted within each pair
	hopOff  []int32    // decision -> range in hops, len E+1
	hops    []int32    // ranked next hops, primary first
	perNode []int32    // decisions held by each node
	maxRank int
}

// CompileFailover builds failover tables from a multirouting: route i of
// a pair contributes, at every node it traverses, its next hop at rank
// i (duplicate next hops at a node collapse into the earlier rank).
// Section 6 multiroutings and Reinforce outputs compile directly.
func CompileFailover(m *MultiRouting) *FailoverTables {
	return buildFailover(m.g.N(), sortedKeys(m.routes), func(k pairKey) []Path { return m.routes[k] })
}

// FailoverFromRouting builds rank-1 failover tables from a single
// routing: the same entries as Compile, in the ranked representation.
// Walks over these tables succeed exactly when the pair's one route
// survives, which is the bridge between table-level and
// surviving-route-graph semantics (see TestWalkMatchesSurvivingGraph).
func FailoverFromRouting(r *Routing) *FailoverTables {
	one := make([]Path, 1)
	return buildFailover(r.g.N(), sortedKeys(r.routes), func(k pairKey) []Path {
		one[0] = r.routes[k]
		return one
	})
}

// rankedHop is one route hop at -> nx of the pair being compiled.
type rankedHop struct{ at, nx int32 }

// buildFailover fills the flat layout one pair at a time, in the sorted
// order of keys. A pair's route hops are stable-sorted by at-node, so
// each decision lists its next hops in route order, and a next hop
// already ranked at the node is dropped.
func buildFailover(n int, keys []pairKey, routesOf func(pairKey) []Path) *FailoverTables {
	ft := &FailoverTables{
		n:       n,
		srcOff:  make([]int32, n+1),
		pairs:   make([][2]int32, 0, len(keys)),
		entOff:  append(make([]int32, 0, len(keys)+1), 0),
		hopOff:  []int32{0},
		perNode: make([]int32, n),
	}
	var run []rankedHop // the current pair's hops
	for _, k := range keys {
		ft.pairs = append(ft.pairs, [2]int32{k.u, k.v})
		ft.srcOff[k.u+1]++
		run = run[:0]
		for _, p := range routesOf(k) {
			for i := 0; i+1 < len(p); i++ {
				run = append(run, rankedHop{at: int32(p[i]), nx: int32(p[i+1])})
			}
		}
		slices.SortStableFunc(run, func(x, y rankedHop) int { return cmp.Compare(x.at, y.at) })
		for i := 0; i < len(run); {
			at, start := run[i].at, len(ft.hops)
			for ; i < len(run) && run[i].at == at; i++ {
				if !slices.Contains(ft.hops[start:], run[i].nx) {
					ft.hops = append(ft.hops, run[i].nx)
				}
			}
			ft.entAt = append(ft.entAt, at)
			ft.hopOff = append(ft.hopOff, int32(len(ft.hops)))
			ft.perNode[at]++
			ft.maxRank = max(ft.maxRank, len(ft.hops)-start)
		}
		ft.entOff = append(ft.entOff, int32(len(ft.entAt)))
	}
	for v := 0; v < n; v++ {
		ft.srcOff[v+1] += ft.srcOff[v]
	}
	return ft
}

// N returns the node count the tables were compiled for.
func (ft *FailoverTables) N() int { return ft.n }

// MaxRank returns the deepest ranked-entry list (1 = no backups).
func (ft *FailoverTables) MaxRank() int { return ft.maxRank }

// Entries returns the number of (at, src, dst) decisions with at least
// one next hop — comparable to ForwardingTables.Entries.
func (ft *FailoverTables) Entries() int { return len(ft.entAt) }

// EntriesAt returns the number of decisions held by one node.
func (ft *FailoverTables) EntriesAt(node int) int {
	if node < 0 || node >= ft.n {
		return 0
	}
	return int(ft.perNode[node])
}

// Concentrator returns the node holding the most decisions (ties to the
// lowest id), the natural first target of an adversary, or -1 when the
// tables hold no decision.
func (ft *FailoverTables) Concentrator() int {
	conc := -1
	for v, e := range ft.perNode {
		if e > 0 && (conc < 0 || e > ft.perNode[conc]) {
			conc = v
		}
	}
	return conc
}

// Pairs returns the ordered pairs with at least one route, sorted
// lexicographically. The slice is shared; callers must not mutate it.
func (ft *FailoverTables) Pairs() [][2]int32 { return ft.pairs }

// PairIndex returns the index of the ordered pair (src, dst) in Pairs(),
// or -1 when the tables hold no route for it.
func (ft *FailoverTables) PairIndex(src, dst int) int {
	if src < 0 || src >= ft.n || dst < 0 || dst >= ft.n {
		return -1
	}
	lo, end := ft.srcOff[src], ft.srcOff[src+1]
	for hi := end; lo < hi; {
		if mid := (lo + hi) >> 1; ft.pairs[mid][1] < int32(dst) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && ft.pairs[lo][1] == int32(dst) {
		return int(lo)
	}
	return -1
}

// Layout exposes the flat arrays: the sorted pairs (indexed like
// Pairs), and per decision e — found with Entry — its at-node entAt[e]
// and the range hopOff[e]..hopOff[e+1] of its ranked next hops in hops.
// The slices are shared; callers must not mutate them.
func (ft *FailoverTables) Layout() (pairs [][2]int32, entAt, hopOff, hops []int32) {
	return ft.pairs, ft.entAt, ft.hopOff, ft.hops
}

// NextRanked returns the ranked next hops at node `at` for the pair
// (src, dst), primary first. The slice is shared; callers must not
// mutate it.
func (ft *FailoverTables) NextRanked(at, src, dst int) []int32 {
	p := ft.PairIndex(src, dst)
	if p < 0 {
		return nil
	}
	if e := ft.Entry(p, at); e >= 0 {
		return ft.hops[ft.hopOff[e]:ft.hopOff[e+1]]
	}
	return nil
}

// Entry returns the index in the Layout arrays of pair index p's
// decision at node `at`, or -1 when the pair holds none there.
func (ft *FailoverTables) Entry(p, at int) int {
	lo, end := ft.entOff[p], ft.entOff[p+1]
	for hi := end; lo < hi; {
		if mid := (lo + hi) >> 1; ft.entAt[mid] < int32(at) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && ft.entAt[lo] == int32(at) {
		return int(lo)
	}
	return -1
}

// EachEntry calls fn once per (at, src, dst) decision with its ranked
// next hops (primary first), in (src, dst, at) order. The ranked slice
// is shared with the tables; callers must not mutate or retain it.
func (ft *FailoverTables) EachEntry(fn func(at, src, dst int, ranked []int32)) {
	for p, pr := range ft.pairs {
		for e := ft.entOff[p]; e < ft.entOff[p+1]; e++ {
			fn(int(ft.entAt[e]), int(pr[0]), int(pr[1]), ft.hops[ft.hopOff[e]:ft.hopOff[e+1]])
		}
	}
}

// WalkUnderFaults forwards a packet from src to dst hop by hop with
// local failover: at each node the first live ranked entry is taken,
// where an entry nx is live iff neither the link to nx nor nx itself is
// faulty. The walk is deterministic, always terminates within
// min(alive, n) hops, and always returns one of the three classified
// outcomes. A faulty src or dst blackholes immediately (the packet can
// be neither sent nor received).
func (ft *FailoverTables) WalkUnderFaults(src, dst int, faults *FaultSet) WalkResult {
	if faults == nil {
		faults = NewFaultSet(ft.n)
	}
	if faults.NodeFaulty(src) || faults.NodeFaulty(dst) {
		return WalkResult{Outcome: Blackhole, Path: Path{src}}
	}
	if src == dst {
		return WalkResult{Outcome: Delivered, Path: Path{src}}
	}
	res := WalkResult{Path: Path{src}}
	visited := make([]uint64, (ft.n+63)/64)
	visited[src>>6] |= 1 << (uint(src) & 63)
	for at := src; ; {
		nx, rank := ft.liveNext(at, src, dst, faults)
		if nx < 0 {
			res.Outcome = Blackhole
			return res
		}
		if rank > 0 {
			res.Failovers++
		}
		res.Path = append(res.Path, nx)
		res.Hops++
		if nx == dst {
			res.Outcome = Delivered
			return res
		}
		w, bit := nx>>6, uint64(1)<<(uint(nx)&63)
		if visited[w]&bit != 0 {
			res.Outcome = Loop
			return res
		}
		visited[w] |= bit
		at = nx
	}
}

// liveNext returns the first live ranked entry at `at` for (src, dst)
// and its rank, or (-1, -1) if no entry is live.
func (ft *FailoverTables) liveNext(at, src, dst int, faults *FaultSet) (int, int) {
	for rank, nx := range ft.NextRanked(at, src, dst) {
		n := int(nx)
		if faults.NodeFaulty(n) || faults.LinkFaulty(at, n) {
			continue
		}
		return n, rank
	}
	return -1, -1
}

// Reinforce builds a failover-ready multirouting from a single routing,
// in the spirit of Lenzen–Medina's "Robust Routing Made Easy": every
// routed pair keeps its primary route and gains up to backups additional
// routes, where backup i is a BFS shortest path (deterministic
// smallest-id tie-breaking) in the graph with the links of all routes
// already chosen for the pair removed. Successive backups are therefore
// link-disjoint from their predecessors: any cut set that kills the
// primary leaves the first backup intact unless it also spends budget on
// the backup's own links. Pairs whose residual graph disconnects simply
// stop early — reinforcement degrades gracefully on sparse graphs.
func Reinforce(r *Routing, backups int) (*MultiRouting, error) {
	backups = max(backups, 0)
	keys := sortedKeys(r.routes)
	m := &MultiRouting{g: r.g, limit: backups + 1, routes: make(map[pairKey][]Path, len(keys))}
	s := newBackupSearch(r.g)
	for i, k := range keys {
		primary := r.routes[k]
		stamp := int32(i + 1) // marks the links used by this pair's routes
		if !s.markLinks(primary, stamp) {
			return nil, fmt.Errorf("%w: route %v", ErrNotPath, primary)
		}
		routes := append(make([]Path, 0, backups+1), primary)
		for len(routes) <= backups {
			alt := s.shortestPathAvoiding(int(k.u), int(k.v), stamp)
			if alt == nil {
				break
			}
			s.markLinks(alt, stamp)
			routes = append(routes, alt)
		}
		m.routes[k] = routes
	}
	return m, nil
}

// backupSearch is Reinforce's scratch: the graph as flat arcs with an
// undirected edge id each (neighbours in increasing order, the order of
// EachNeighbor), a per-edge stamp of the pair whose routes use it, and
// BFS arrays reused from one search to the next.
type backupSearch struct {
	arcOff, arcTo, arcEdge []int32 // node -> arcs; arc -> head, edge id
	used                   []int32 // edge id -> stamp of the pair using it
	parent                 []int32 // node -> BFS parent; -2 = unreached
	queue                  []int32
}

func newBackupSearch(g *graph.Graph) *backupSearch {
	n := g.N()
	s := &backupSearch{arcOff: make([]int32, n+1), parent: make([]int32, n)}
	for x := 0; x < n; x++ {
		g.EachNeighbor(x, func(y int) bool {
			id := int32(len(s.used))
			if y < x { // the edge was numbered from y's side
				id = s.arcEdge[s.arcFind(y, x)]
			} else {
				s.used = append(s.used, 0)
			}
			s.arcTo = append(s.arcTo, int32(y))
			s.arcEdge = append(s.arcEdge, id)
			return true
		})
		s.arcOff[x+1] = int32(len(s.arcTo))
		s.parent[x] = -2
	}
	return s
}

// arcFind returns the index of arc x -> y, or -1.
func (s *backupSearch) arcFind(x, y int) int {
	for a := s.arcOff[x]; a < s.arcOff[x+1]; a++ {
		if s.arcTo[a] == int32(y) {
			return int(a)
		}
	}
	return -1
}

// markLinks stamps p's links as used, reporting false when p steps off
// the graph.
func (s *backupSearch) markLinks(p Path, stamp int32) bool {
	for i := 0; i+1 < len(p); i++ {
		a := s.arcFind(p[i], p[i+1])
		if a < 0 {
			return false
		}
		s.used[s.arcEdge[a]] = stamp
	}
	return true
}

// shortestPathAvoiding runs a BFS from u to v that never traverses a
// link stamped with stamp, with deterministic smallest-id tie-breaking
// (the same rule as ShortestPath). It returns nil when v is unreachable.
func (s *backupSearch) shortestPathAvoiding(u, v int, stamp int32) Path {
	s.parent[u] = -1
	s.queue = append(s.queue[:0], int32(u))
	for head := 0; head < len(s.queue) && s.parent[v] == -2; head++ {
		x := s.queue[head]
		for a := s.arcOff[x]; a < s.arcOff[x+1]; a++ {
			if y := s.arcTo[a]; s.parent[y] == -2 && s.used[s.arcEdge[a]] != stamp {
				s.parent[y] = x
				s.queue = append(s.queue, y)
			}
		}
	}
	var p Path
	if s.parent[v] != -2 {
		hops := 0
		for x := int32(v); s.parent[x] >= 0; x = s.parent[x] {
			hops++
		}
		p = make(Path, hops+1)
		for x, i := int32(v), hops; i >= 0; x, i = s.parent[x], i-1 {
			p[i] = int(x)
		}
	}
	for _, x := range s.queue {
		s.parent[x] = -2
	}
	return p
}

// sortedKeys returns the pair keys of a route map in lexicographic
// order, giving deterministic compilation, reinforcement and encoding.
func sortedKeys[V any](routes map[pairKey]V) []pairKey {
	keys := make([]pairKey, 0, len(routes))
	for k := range routes {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b pairKey) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	return keys
}
