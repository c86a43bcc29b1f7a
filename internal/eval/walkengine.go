package eval

import (
	"math/bits"

	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// WalkEngine is the incremental evaluation engine for static-failover
// walks under mixed faults — the packet-level analogue of Engine. It
// walks the FailoverTables' flat layout in place, adding one edge id per
// ranked hop, and caches, per ordered pair, the current walk: its
// outcome, the links it traverses (the hop sequence in edge-id form),
// the nodes it enters, and the links and nodes it consulted entries
// toward but skipped because they were faulty. Inverted item→pairs
// bitset indexes keep every cache queryable per link and per node,
// which makes invalidation exact:
//
//   - AddLinkCut(e) changes the walk of exactly the pairs whose cached
//     walk traverses e. Every entry ranked before the one a walk took
//     was already dead, and a taken entry other than e stays live, so a
//     walk that never crossed e replays identically.
//   - RemoveLinkCut(e) changes the walk of exactly the pairs whose
//     cached walk consulted-and-skipped e (the blocked set): repairing
//     a link no walk was deflected by cannot improve any decision it
//     made. Blocked sets include every cut entry at a blackhole node,
//     so blackholed pairs recover as soon as one of their entries does.
//   - AddNodeFault(v) changes the walk of exactly the pairs whose
//     cached walk enters v (the decision at v's predecessor flips, and
//     any decisions made at v disappear) plus the pairs with v as an
//     endpoint (they become Skipped — no packet to forward).
//   - RemoveNodeFault(v) changes the walk of exactly the pairs whose
//     cached walk consulted an entry toward v and skipped it because v
//     was failed, plus the endpoint pairs of v.
//
// Each toggle therefore re-walks only the affected pairs, maintaining
// CutStats incrementally, while the legacy path re-walks all P pairs
// per probed fault set. The same argument makes a read-only probe exact
// (see prober): adding items to the fault set changes only the walks in
// the union of the items' add rows, so the stats of "current set plus
// these items" follow from re-walking that union against a private
// fault view and adjusting a copy of the running stats — no cache row is
// written, so any number of goroutines may probe one engine at once.
// Clone() shares the compiled arrays and copies only the mutable walk
// cache, which is what the exhaustive parallel enumerations use.
type WalkEngine struct {
	g         *graph.Graph // cuttable links + neighbor order (read-only)
	n         int          // nodes
	m         int          // cuttable links (g.Edges())
	pairWords int          // uint64 words per link→pairs bitset row

	// Compiled form, shared read-only between clones. pairs, hopOff and
	// hops alias the tables' flat layout; entries are found by
	// tables.Entry.
	tables       *routing.FailoverTables
	pairs        [][2]int32      // pair id -> (src, dst), FailoverTables.Pairs() order
	hopOff       []int32         // entry -> range in hops/hopEdge, len E+1
	hops         []int32         // ranked next hops, primary first
	hopEdge      []int32         // hop -> edge id of the (at, hop) link; -1 = not a graph edge, never cuttable
	edgeU, edgeV []int32         // edge id -> endpoints (u < v), g.Edges() order
	edgeID       map[int64]int32 // normalized endpoint key -> edge id
	endpointRows []uint64        // node -> bitset over pairs with the node as src or dst

	// Mutable walk cache, deep-copied by Clone.
	cut           *graph.Bitset // currently cut edge ids
	nodeFault     *graph.Bitset // currently failed nodes
	outcome       []routing.Outcome
	trav          [][]int32 // pair -> edge ids its walk traverses, hop order
	blocked       [][]int32 // pair -> cut edge ids its walk consulted and skipped
	visited       [][]int32 // pair -> nodes its walk enters (src excluded, dst included)
	blockedN      [][]int32 // pair -> failed nodes its walk consulted entries toward and skipped
	fails         []int32   // pair -> hops its walk took on a backup (rank > 0) entry
	travRows      []uint64  // edge -> bitset over pairs with the edge in trav
	blockRows     []uint64  // edge -> bitset over pairs with the edge in blocked
	visitRows     []uint64  // node -> bitset over pairs with the node in visited
	blockNodeRows []uint64  // node -> bitset over pairs with the node in blockedN
	stats         CutStats

	ws walkScratch // toggle-path walk scratch, viewing cut and nodeFault; per clone
}

// walkScratch is the per-goroutine state of one walk: the fault view it
// reads, loop-detection stamps, and a pair-row buffer. The engine's own
// scratch views its live fault sets; a prober's views a private copy of
// them with the probed items added.
type walkScratch struct {
	cut, down *graph.Bitset // fault view: cut edge ids, failed nodes
	stamp     []int64       // node -> epoch of last visit (loop detection)
	epoch     int64
	row       []uint64 // union of the item rows to re-walk
}

// newWalkScratch returns walk scratch for an engine with n nodes and
// pairWords-word pair rows, viewing the given fault sets.
func newWalkScratch(cut, down *graph.Bitset, n, pairWords int) walkScratch {
	return walkScratch{cut: cut, down: down, stamp: make([]int64, n), row: make([]uint64, pairWords)}
}

// NewWalkEngine compiles tables t (built for graph g) and walks every
// pair once under the empty cut set. The engine walks the tables' flat
// arrays in place, adding only the edge id of every ranked hop; the
// tables and graph are only read. Toggles mutate the engine and must
// not run concurrently with anything else on it; probes (newProber)
// only read it and may run concurrently with each other.
func NewWalkEngine(t *routing.FailoverTables, g *graph.Graph) *WalkEngine {
	edges := g.Edges()
	we := &WalkEngine{
		tables: t,
		g:      g,
		n:      g.N(),
		m:      len(edges),
		edgeU:  make([]int32, len(edges)),
		edgeV:  make([]int32, len(edges)),
		edgeID: make(map[int64]int32, len(edges)),
	}
	var entAt []int32
	we.pairs, entAt, we.hopOff, we.hops = t.Layout()
	P := len(we.pairs)
	we.pairWords = (P + 63) / 64
	for i, e := range edges {
		we.edgeU[i], we.edgeV[i] = int32(e[0]), int32(e[1])
		we.edgeID[edgeKeyNorm(e[0], e[1])] = int32(i)
	}
	we.hopEdge = make([]int32, len(we.hops))
	for e, at := range entAt {
		for h := we.hopOff[e]; h < we.hopOff[e+1]; h++ {
			we.hopEdge[h] = -1
			if id, ok := we.edgeID[edgeKeyNorm(int(at), int(we.hops[h]))]; ok {
				we.hopEdge[h] = id
			}
		}
	}
	we.endpointRows = make([]uint64, we.n*we.pairWords)
	for p, pr := range we.pairs {
		w, bit := p>>6, uint64(1)<<(uint(p)&63)
		we.endpointRows[int(pr[0])*we.pairWords+w] |= bit
		we.endpointRows[int(pr[1])*we.pairWords+w] |= bit
	}
	we.cut = graph.NewBitset(we.m)
	we.nodeFault = graph.NewBitset(we.n)
	we.outcome = make([]routing.Outcome, P)
	we.trav = make([][]int32, P)
	we.blocked = make([][]int32, P)
	we.visited = make([][]int32, P)
	we.blockedN = make([][]int32, P)
	we.fails = make([]int32, P)
	we.travRows = make([]uint64, we.m*we.pairWords)
	we.blockRows = make([]uint64, we.m*we.pairWords)
	we.visitRows = make([]uint64, we.n*we.pairWords)
	we.blockNodeRows = make([]uint64, we.n*we.pairWords)
	we.ws = newWalkScratch(we.cut, we.nodeFault, we.n, we.pairWords)
	we.stats.Pairs = P
	for p := 0; p < P; p++ {
		out := we.walk(int32(p), &we.ws, true)
		we.outcome[p] = out
		we.indexPair(int32(p), true)
		we.stats.bump(out, 1)
	}
	return we
}

// edgeKeyNorm is the normalized undirected link key, matching
// Engine.edgeKey's convention.
func edgeKeyNorm(u, v int) int64 {
	if u > v {
		u, v = v, u
	}
	return int64(u)<<32 | int64(v)
}

// Clone returns an independent engine over the same compiled tables:
// the flat arrays are shared read-only, the walk cache is deep-copied.
func (we *WalkEngine) Clone() *WalkEngine {
	c := *we
	c.cut = we.cut.Clone()
	c.nodeFault = we.nodeFault.Clone()
	c.outcome = append([]routing.Outcome(nil), we.outcome...)
	c.trav = cloneLinkLists(we.trav)
	c.blocked = cloneLinkLists(we.blocked)
	c.visited = cloneLinkLists(we.visited)
	c.blockedN = cloneLinkLists(we.blockedN)
	c.fails = append([]int32(nil), we.fails...)
	c.travRows = append([]uint64(nil), we.travRows...)
	c.blockRows = append([]uint64(nil), we.blockRows...)
	c.visitRows = append([]uint64(nil), we.visitRows...)
	c.blockNodeRows = append([]uint64(nil), we.blockNodeRows...)
	c.ws = newWalkScratch(c.cut, c.nodeFault, we.n, we.pairWords)
	return &c
}

// cloneLinkLists deep-copies per-pair item lists (link or node) into
// one backing array. Capacities are pinned to lengths so a later append
// relocates the pair's slice instead of overwriting a neighbor's.
func cloneLinkLists(lists [][]int32) [][]int32 {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	backing := make([]int32, 0, total)
	out := make([][]int32, len(lists))
	for i, l := range lists {
		a := len(backing)
		backing = append(backing, l...)
		out[i] = backing[a:len(backing):len(backing)]
	}
	return out
}

// N returns the node count.
func (we *WalkEngine) N() int { return we.n }

// Links returns the number of cuttable links.
func (we *WalkEngine) Links() int { return we.m }

// PairCount returns the number of ordered pairs with table entries.
func (we *WalkEngine) PairCount() int { return len(we.pairs) }

// Pair returns pair i as (src, dst), in FailoverTables.Pairs() order.
func (we *WalkEngine) Pair(i int) (src, dst int) {
	return int(we.pairs[i][0]), int(we.pairs[i][1])
}

// Outcome returns the cached walk outcome of pair i under the current
// cut set.
func (we *WalkEngine) Outcome(i int) routing.Outcome { return we.outcome[i] }

// Stats returns the outcome counts over all pairs under the current
// cut set — the value the legacy path recomputes with walkAllPairs.
func (we *WalkEngine) Stats() CutStats { return we.stats }

// DisruptedPairs returns the pairs currently blackholed or looping, in
// pair order. Skipped pairs (a failed endpoint) are not disrupted: no
// packet exists to be misrouted.
func (we *WalkEngine) DisruptedPairs() [][2]int32 {
	var out [][2]int32
	for i, o := range we.outcome {
		if o == routing.Blackhole || o == routing.Loop {
			out = append(out, we.pairs[i])
		}
	}
	return out
}

// PairID returns the pair id of the ordered pair (src, dst), or -1 when
// the tables hold no entry for it. Pair ids index the per-pair walk
// accessors below and stay valid for the engine's lifetime.
func (we *WalkEngine) PairID(src, dst int) int { return we.tables.PairIndex(src, dst) }

// WalkHops returns the link traversals of pair p's cached walk under
// the current fault set — len(Path)-1 of the equivalent WalkUnderFaults
// result. Skipped pairs report 0.
func (we *WalkEngine) WalkHops(p int) int { return len(we.visited[p]) }

// WalkFailovers returns how many hops of pair p's cached walk used a
// backup (rank > 0) entry, matching WalkResult.Failovers.
func (we *WalkEngine) WalkFailovers(p int) int { return int(we.fails[p]) }

// WalkStuck returns the node pair p's cached walk ended at: dst when
// delivered, the dead-end node on a blackhole, the first revisited node
// on a loop, and the source when the walk never left it.
func (we *WalkEngine) WalkStuck(p int) int {
	if l := we.visited[p]; len(l) > 0 {
		return int(l[len(l)-1])
	}
	return int(we.pairs[p][0])
}

// CutList returns the current cut set, normalized and sorted (edge-id
// order coincides with endpoint order because edges are compiled from
// the sorted g.Edges()).
func (we *WalkEngine) CutList() []routing.EdgeFault {
	ids := we.cut.Elements()
	out := make([]routing.EdgeFault, len(ids))
	for i, id := range ids {
		out[i] = routing.EdgeFault{U: int(we.edgeU[id]), V: int(we.edgeV[id])}
	}
	return out
}

// HasLinkCut reports whether the link {u, v} is currently cut.
func (we *WalkEngine) HasLinkCut(u, v int) bool {
	id, ok := we.edgeID[edgeKeyNorm(u, v)]
	return ok && we.cut.Has(int(id))
}

// AddLinkCut cuts the link {u, v} and re-walks exactly the pairs whose
// cached walk traversed it. Unknown links and already-cut links are
// no-ops.
func (we *WalkEngine) AddLinkCut(u, v int) {
	if id, ok := we.edgeID[edgeKeyNorm(u, v)]; ok {
		we.addCut(int(id))
	}
}

// RemoveLinkCut repairs the link {u, v} and re-walks exactly the pairs
// whose cached walk was deflected by it.
func (we *WalkEngine) RemoveLinkCut(u, v int) {
	if id, ok := we.edgeID[edgeKeyNorm(u, v)]; ok {
		we.removeCut(int(id))
	}
}

// addCut is AddLinkCut by edge id.
func (we *WalkEngine) addCut(id int) {
	if we.cut.Has(id) {
		return
	}
	we.cut.Add(id)
	we.rewalkRow(we.travRows[id*we.pairWords : (id+1)*we.pairWords])
}

// removeCut is RemoveLinkCut by edge id.
func (we *WalkEngine) removeCut(id int) {
	if !we.cut.Has(id) {
		return
	}
	we.cut.Remove(id)
	we.rewalkRow(we.blockRows[id*we.pairWords : (id+1)*we.pairWords])
}

// HasNodeFault reports whether node v is currently failed.
func (we *WalkEngine) HasNodeFault(v int) bool {
	return v >= 0 && v < we.n && we.nodeFault.Has(v)
}

// NodeFaultList returns the currently failed nodes, sorted. The empty
// set is a non-nil empty slice, the canonical witness form shared with
// the legacy oracle.
func (we *WalkEngine) NodeFaultList() []int {
	return append(make([]int, 0, we.nodeFault.Count()), we.nodeFault.Elements()...)
}

// AddNodeFault fails node v and re-walks exactly the pairs whose cached
// walk enters v plus the pairs with v as an endpoint (which become
// Skipped). Out-of-range and already-failed nodes are no-ops.
func (we *WalkEngine) AddNodeFault(v int) {
	if v >= 0 && v < we.n {
		we.addNodeFault(v)
	}
}

// RemoveNodeFault repairs node v and re-walks exactly the pairs whose
// cached walk was deflected by v's fault plus v's endpoint pairs.
func (we *WalkEngine) RemoveNodeFault(v int) {
	if v >= 0 && v < we.n {
		we.removeNodeFault(v)
	}
}

// addNodeFault is AddNodeFault with v known in range.
func (we *WalkEngine) addNodeFault(v int) {
	if we.nodeFault.Has(v) {
		return
	}
	we.nodeFault.Add(v)
	we.rewalkRows(we.visitRows[v*we.pairWords:(v+1)*we.pairWords],
		we.endpointRows[v*we.pairWords:(v+1)*we.pairWords])
}

// removeNodeFault is RemoveNodeFault with v known in range.
func (we *WalkEngine) removeNodeFault(v int) {
	if !we.nodeFault.Has(v) {
		return
	}
	we.nodeFault.Remove(v)
	we.rewalkRows(we.blockNodeRows[v*we.pairWords:(v+1)*we.pairWords],
		we.endpointRows[v*we.pairWords:(v+1)*we.pairWords])
}

// rewalkRow re-walks every pair set in the given item row. The row is
// snapshotted first because each re-walk mutates the live rows.
func (we *WalkEngine) rewalkRow(row []uint64) { we.rewalkRows(row, nil) }

// rewalkRows re-walks every pair set in the union of the two item rows
// (the second may be nil), snapshotting first because each re-walk
// mutates the live rows.
func (we *WalkEngine) rewalkRows(row, extra []uint64) {
	copy(we.ws.row, row)
	orRow(we.ws.row, extra)
	for wi, word := range we.ws.row {
		base := wi << 6
		for word != 0 {
			p := base | bits.TrailingZeros64(word)
			word &= word - 1
			we.rewalk(int32(p))
		}
	}
}

// SetCuts replaces the current cut set with exactly the given links via
// symmetric-difference toggles, so consecutive similar sets stay cheap.
func (we *WalkEngine) SetCuts(cuts []routing.EdgeFault) {
	want := graph.NewBitset(we.m)
	for _, e := range cuts {
		if id, ok := we.edgeID[edgeKeyNorm(e.U, e.V)]; ok {
			want.Add(int(id))
		}
	}
	for _, id := range we.cut.Elements() {
		if !want.Has(id) {
			we.removeCut(id)
		}
	}
	for _, id := range want.Elements() {
		we.addCut(id)
	}
}

// SetMixedFaults replaces the current mixed fault set with exactly the
// given failed nodes and cut links via symmetric-difference toggles, so
// consecutive similar sets stay cheap. Out-of-range nodes and unknown
// links are ignored.
func (we *WalkEngine) SetMixedFaults(nodes []int, cuts []routing.EdgeFault) {
	wantN := graph.NewBitset(we.n)
	for _, v := range nodes {
		if v >= 0 && v < we.n {
			wantN.Add(v)
		}
	}
	for _, v := range we.nodeFault.Elements() {
		if !wantN.Has(v) {
			we.removeNodeFault(v)
		}
	}
	for _, v := range wantN.Elements() {
		we.addNodeFault(v)
	}
	we.SetCuts(cuts)
}

// toggleMixedItem adds or removes universe item v (node for v < n, edge
// v-n otherwise) — the packet-level analogue of Engine.toggleItem.
func (we *WalkEngine) toggleMixedItem(v int, add bool) {
	switch {
	case v < we.n && add:
		we.addNodeFault(v)
	case v < we.n:
		we.removeNodeFault(v)
	case add:
		we.addCut(v - we.n)
	default:
		we.removeCut(v - we.n)
	}
}

// Reset repairs every cut link and every failed node.
func (we *WalkEngine) Reset() {
	for _, id := range we.cut.Elements() {
		we.removeCut(id)
	}
	for _, v := range we.nodeFault.Elements() {
		we.removeNodeFault(v)
	}
}

// orRow ors src into dst word by word (src may be nil).
func orRow(dst, src []uint64) {
	for i, word := range src {
		dst[i] |= word
	}
}

// rewalk re-walks pair p, refreshing its cache rows and the running
// stats.
func (we *WalkEngine) rewalk(p int32) {
	we.indexPair(p, false)
	old := we.outcome[p]
	out := we.walk(p, &we.ws, true)
	we.indexPair(p, true)
	if out != old {
		we.stats.bump(old, -1)
		we.stats.bump(out, 1)
		we.outcome[p] = out
	}
}

// bump adjusts the outcome counter for o by d (Pairs is fixed).
func (s *CutStats) bump(o routing.Outcome, d int) {
	switch o {
	case routing.Delivered:
		s.Delivered += d
	case routing.Blackhole:
		s.Blackhole += d
	case routing.Skipped:
		s.Skipped += d
	default:
		s.Loop += d
	}
}

// indexPair sets (on=true) or clears pair p's bits in the item rows of
// its cached traversed, visited and blocked lists. Duplicate items (a
// loop walk's revisited node, an entry dead for two reasons) are
// harmless: set and clear are idempotent.
func (we *WalkEngine) indexPair(p int32, on bool) {
	w, bit := int(p)>>6, uint64(1)<<(uint(p)&63)
	if on {
		for _, eid := range we.trav[p] {
			we.travRows[int(eid)*we.pairWords+w] |= bit
		}
		for _, eid := range we.blocked[p] {
			we.blockRows[int(eid)*we.pairWords+w] |= bit
		}
		for _, v := range we.visited[p] {
			we.visitRows[int(v)*we.pairWords+w] |= bit
		}
		for _, v := range we.blockedN[p] {
			we.blockNodeRows[int(v)*we.pairWords+w] |= bit
		}
		return
	}
	for _, eid := range we.trav[p] {
		we.travRows[int(eid)*we.pairWords+w] &^= bit
	}
	for _, eid := range we.blocked[p] {
		we.blockRows[int(eid)*we.pairWords+w] &^= bit
	}
	for _, v := range we.visited[p] {
		we.visitRows[int(v)*we.pairWords+w] &^= bit
	}
	for _, v := range we.blockedN[p] {
		we.blockNodeRows[int(v)*we.pairWords+w] &^= bit
	}
}

// walk replays pair p's forwarding walk under the fault view of ws and
// returns the outcome. Semantics mirror FailoverTables.WalkUnderFaults
// — an entry is dead iff its link is cut or its target node is failed,
// the first live ranked entry is taken, Delivered on reaching dst,
// Blackhole when no live entry exists, Loop on a node revisit
// (epoch-stamped, allocation-free) — except that a failed src or dst
// yields Skipped: there is no packet to walk. With rec the walk also
// rebuilds p's cached traversed, visited and blocked item lists (the
// toggle path); without it the walk writes nothing of the engine's, the
// read-only form probes use. An entry dead for both reasons records
// both, so repairing either one alone re-walks the pair (a no-op walk,
// but never a missed invalidation).
func (we *WalkEngine) walk(p int32, ws *walkScratch, rec bool) routing.Outcome {
	if rec {
		we.trav[p] = we.trav[p][:0]
		we.blocked[p] = we.blocked[p][:0]
		we.visited[p] = we.visited[p][:0]
		we.blockedN[p] = we.blockedN[p][:0]
		we.fails[p] = 0
	}
	src, dst := we.pairs[p][0], we.pairs[p][1]
	if ws.down.Has(int(src)) || ws.down.Has(int(dst)) {
		return routing.Skipped
	}
	if src == dst {
		return routing.Delivered
	}
	ws.epoch++
	ws.stamp[src] = ws.epoch
	at := src
	for {
		took := int32(-1)
		if e := int32(we.tables.Entry(int(p), int(at))); e >= 0 {
			for h := we.hopOff[e]; h < we.hopOff[e+1]; h++ {
				eid, nx := we.hopEdge[h], we.hops[h]
				dead := false
				if eid >= 0 && ws.cut.Has(int(eid)) {
					if rec {
						we.blocked[p] = append(we.blocked[p], eid)
					}
					dead = true
				}
				if ws.down.Has(int(nx)) {
					if rec {
						we.blockedN[p] = append(we.blockedN[p], nx)
					}
					dead = true
				}
				if dead {
					continue
				}
				if rec && h > we.hopOff[e] {
					we.fails[p]++
				}
				took = h
				break
			}
		}
		if took < 0 {
			return routing.Blackhole
		}
		nx := we.hops[took]
		if rec {
			if eid := we.hopEdge[took]; eid >= 0 {
				we.trav[p] = append(we.trav[p], eid)
			}
			we.visited[p] = append(we.visited[p], nx)
		}
		if nx == dst {
			return routing.Delivered
		}
		if ws.stamp[nx] == ws.epoch {
			return routing.Loop
		}
		ws.stamp[nx] = ws.epoch
		at = nx
	}
}

// prober is one goroutine's scratch for probing a shared WalkEngine:
// its own fault view, loop stamps and pair-row buffer. Any number of
// probers may probe one engine concurrently, provided nothing toggles
// the engine meanwhile.
type prober struct {
	we *WalkEngine
	ws walkScratch
}

// newProber returns a prober over we.
func (we *WalkEngine) newProber() *prober {
	return &prober{we: we, ws: newWalkScratch(graph.NewBitset(we.m), graph.NewBitset(we.n), we.n, we.pairWords)}
}

// probe returns the CutStats the engine would report after adding the
// given mixed-universe items (node v < n, edge v-n otherwise) to its
// fault set, without touching the walk cache. It is exact for the reason
// the add toggles are: a pair outside every item's add row — the walks
// crossing a link (travRows), or entering or ending at a node (visitRows
// ∪ endpointRows) — walks identically once the items fail, so only the
// union of those rows is re-walked, against the fault view "current set
// plus items", and a copy of the running stats is adjusted by the
// outcome changes. Items already in the fault set are harmless: their
// add rows hold no pair whose walk could change.
func (pr *prober) probe(items ...int) CutStats {
	we, ws := pr.we, &pr.ws
	ws.cut.Clear()
	ws.cut.UnionWith(we.cut)
	ws.down.Clear()
	ws.down.UnionWith(we.nodeFault)
	clear(ws.row)
	pw := we.pairWords
	for _, v := range items {
		if v < we.n {
			ws.down.Add(v)
			orRow(ws.row, we.visitRows[v*pw:(v+1)*pw])
			orRow(ws.row, we.endpointRows[v*pw:(v+1)*pw])
		} else {
			id := v - we.n
			ws.cut.Add(id)
			orRow(ws.row, we.travRows[id*pw:(id+1)*pw])
		}
	}
	s := we.stats
	for wi, word := range ws.row {
		base := wi << 6
		for word != 0 {
			p := base | bits.TrailingZeros64(word)
			word &= word - 1
			if out, old := we.walk(int32(p), ws, false), we.outcome[p]; out != old {
				s.bump(old, -1)
				s.bump(out, 1)
			}
		}
	}
	return s
}
