package routing

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// This file keeps the straightforward map-based failover-table builder
// and the map-based Reinforce as test oracles, and pins the flat
// production code to them: identical Reinforce routes, identical ranked
// lists for every (at, src, dst), identical per-node counts, pair order
// and walks under mixed faults.

// oracleTables is the map-based reference layout: one ranked next-hop
// list per (at, src, dst) decision.
type oracleTables struct {
	n       int
	next    map[hopKey][]int32
	perNode []int32
	pairs   [][2]int32
	maxRank int
}

func oracleCompile(m *MultiRouting) *oracleTables {
	o := newOracleTables(m.Graph().N())
	for _, k := range sortedKeys(m.routes) {
		o.addRoutes(int(k.u), int(k.v), m.routes[k])
	}
	o.finish()
	return o
}

func oracleFromRouting(r *Routing) *oracleTables {
	o := newOracleTables(r.g.N())
	for _, k := range sortedKeys(r.routes) {
		o.addRoutes(int(k.u), int(k.v), []Path{r.routes[k]})
	}
	o.finish()
	return o
}

func newOracleTables(n int) *oracleTables {
	return &oracleTables{n: n, next: make(map[hopKey][]int32), perNode: make([]int32, n)}
}

func (o *oracleTables) addRoutes(u, v int, routes []Path) {
	if len(routes) == 0 {
		return
	}
	o.pairs = append(o.pairs, [2]int32{int32(u), int32(v)})
	for _, p := range routes {
		for i := 0; i+1 < len(p); i++ {
			key := hopKey{at: int32(p[i]), u: int32(u), v: int32(v)}
			nx := int32(p[i+1])
			ranked := o.next[key]
			if slices.Contains(ranked, nx) {
				continue
			}
			if len(ranked) == 0 {
				o.perNode[p[i]]++
			}
			o.next[key] = append(ranked, nx)
		}
	}
}

func (o *oracleTables) finish() {
	for _, ranked := range o.next {
		o.maxRank = max(o.maxRank, len(ranked))
	}
}

func (o *oracleTables) nextRanked(at, src, dst int) []int32 {
	return o.next[hopKey{at: int32(at), u: int32(src), v: int32(dst)}]
}

func (o *oracleTables) entriesAt(node int) int {
	if node < 0 || node >= o.n {
		return 0
	}
	return int(o.perNode[node])
}

// walkUnderFaults is the reference FailoverTables.WalkUnderFaults.
func (o *oracleTables) walkUnderFaults(src, dst int, faults *FaultSet) WalkResult {
	if faults.NodeFaulty(src) || faults.NodeFaulty(dst) {
		return WalkResult{Outcome: Blackhole, Path: Path{src}}
	}
	if src == dst {
		return WalkResult{Outcome: Delivered, Path: Path{src}}
	}
	res := WalkResult{Path: Path{src}}
	seen := map[int]bool{src: true}
	for at := src; ; {
		nx, rank := -1, -1
		for r, h := range o.nextRanked(at, src, dst) {
			if !faults.NodeFaulty(int(h)) && !faults.LinkFaulty(at, int(h)) {
				nx, rank = int(h), r
				break
			}
		}
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
		if seen[nx] {
			res.Outcome = Loop
			return res
		}
		seen[nx] = true
		at = nx
	}
}

// oracleReinforce is the reference Reinforce: per-pair link maps and a
// fresh BFS per backup.
func oracleReinforce(r *Routing, backups int) (*MultiRouting, error) {
	if backups < 0 {
		backups = 0
	}
	g := r.g
	m := NewMulti(g, backups+1, false)
	var firstErr error
	for _, k := range sortedKeys(r.routes) {
		primary := r.routes[k]
		if err := m.Add(primary); err != nil {
			return nil, err
		}
		used := make(map[EdgeFault]bool)
		markPathLinks(primary, used)
		for b := 0; b < backups; b++ {
			alt := shortestPathAvoidingLinks(g, int(k.u), int(k.v), used)
			if alt == nil {
				break
			}
			added, err := m.AddCapped(alt)
			if err != nil {
				firstErr = err
				break
			}
			if !added {
				break
			}
			markPathLinks(alt, used)
		}
	}
	return m, firstErr
}

// markPathLinks adds p's links to used, normalized.
func markPathLinks(p Path, used map[EdgeFault]bool) {
	for i := 0; i+1 < len(p); i++ {
		used[EdgeFault{U: p[i], V: p[i+1]}.Normalize()] = true
	}
}

// shortestPathAvoidingLinks is the reference backup BFS: smallest-id
// tie-breaking, links in avoid never traversed, nil when unreachable.
func shortestPathAvoidingLinks(g *graph.Graph, u, v int, avoid map[EdgeFault]bool) Path {
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = -2
	}
	parent[u] = -1
	queue := []int32{int32(u)}
	for head := 0; head < len(queue); head++ {
		x := int(queue[head])
		if x == v {
			break
		}
		g.EachNeighbor(x, func(y int) bool {
			if parent[y] == -2 && !avoid[EdgeFault{U: x, V: y}.Normalize()] {
				parent[y] = int32(x)
				queue = append(queue, int32(y))
			}
			return true
		})
	}
	if parent[v] == -2 {
		return nil
	}
	rev := Path{v}
	for x := v; parent[x] >= 0; {
		x = int(parent[x])
		rev = append(rev, x)
	}
	return rev.Reversed()
}

// CheckFailoverOracle pins Reinforce(r, backups), FailoverFromRouting(r)
// and CompileFailover of the reinforced multirouting to the oracles,
// walking every pair under a few seeded mixed fault sets. It is
// exported for the external test package, which can reach constructions
// that import this one.
func CheckFailoverOracle(t *testing.T, r *Routing, backups int, seed int64) {
	t.Helper()
	m, err := Reinforce(r, backups)
	om, oerr := oracleReinforce(r, backups)
	if (err != nil) != (oerr != nil) {
		t.Fatalf("Reinforce error %v, oracle %v", err, oerr)
	}
	if err != nil {
		return
	}
	checkSameMulti(t, m, om)
	checkTablesMatch(t, r.g, FailoverFromRouting(r), oracleFromRouting(r), seed)
	checkTablesMatch(t, r.g, CompileFailover(m), oracleCompile(om), seed)
}

// checkSameMulti asserts two multiroutings hold the same routes, pair
// for pair and in order.
func checkSameMulti(t *testing.T, m, want *MultiRouting) {
	t.Helper()
	if m.Pairs() != want.Pairs() || m.Limit() != want.Limit() || m.bidirectional != want.bidirectional {
		t.Fatalf("multirouting shape: %d pairs limit %d, want %d pairs limit %d",
			m.Pairs(), m.Limit(), want.Pairs(), want.Limit())
	}
	for k, routes := range want.routes {
		got := m.routes[k]
		if len(got) != len(routes) {
			t.Fatalf("pair %v: %d routes %v, want %d %v", k, len(got), got, len(routes), routes)
		}
		for i := range routes {
			if !got[i].Equal(routes[i]) {
				t.Fatalf("pair %v route %d: %v, want %v", k, i, got[i], routes[i])
			}
		}
	}
}

// checkTablesMatch compares flat tables against the oracle: counts,
// pair order, every ranked list, the EachEntry enumeration and walks
// under the empty and four seeded mixed fault sets.
func checkTablesMatch(t *testing.T, g *graph.Graph, ft *FailoverTables, o *oracleTables, seed int64) {
	t.Helper()
	n := g.N()
	if ft.N() != o.n || ft.Entries() != len(o.next) || ft.MaxRank() != o.maxRank {
		t.Fatalf("n/entries/maxRank %d/%d/%d, want %d/%d/%d",
			ft.N(), ft.Entries(), ft.MaxRank(), o.n, len(o.next), o.maxRank)
	}
	if !slices.Equal(ft.Pairs(), o.pairs) {
		t.Fatalf("pairs differ: %d vs %d", len(ft.Pairs()), len(o.pairs))
	}
	for v := -1; v <= n; v++ {
		if ft.EntriesAt(v) != o.entriesAt(v) {
			t.Fatalf("EntriesAt(%d) = %d, want %d", v, ft.EntriesAt(v), o.entriesAt(v))
		}
	}
	for i, p := range o.pairs {
		if got := ft.PairIndex(int(p[0]), int(p[1])); got != i {
			t.Fatalf("PairIndex%v = %d, want %d", p, got, i)
		}
	}
	found := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if ft.PairIndex(src, dst) >= 0 {
				found++
			}
			for at := 0; at < n; at++ {
				if got, want := ft.NextRanked(at, src, dst), o.nextRanked(at, src, dst); !slices.Equal(got, want) {
					t.Fatalf("NextRanked(%d,%d,%d) = %v, want %v", at, src, dst, got, want)
				}
			}
		}
	}
	if found != len(o.pairs) {
		t.Fatalf("PairIndex finds %d pairs, want %d", found, len(o.pairs))
	}
	if ft.NextRanked(0, -1, 0) != nil || ft.NextRanked(0, n, 0) != nil || ft.PairIndex(n, 0) != -1 {
		t.Fatal("out-of-range lookups must miss")
	}
	entries := 0
	var last [3]int
	ft.EachEntry(func(at, src, dst int, ranked []int32) {
		key := [3]int{src, dst, at}
		if entries > 0 && slices.Compare(key[:], last[:]) <= 0 {
			t.Fatalf("EachEntry out of (src, dst, at) order: %v after %v", key, last)
		}
		last = key
		if want := o.nextRanked(at, src, dst); !slices.Equal(ranked, want) {
			t.Fatalf("EachEntry(%d,%d,%d) = %v, want %v", at, src, dst, ranked, want)
		}
		entries++
	})
	if entries != len(o.next) {
		t.Fatalf("EachEntry visited %d decisions, want %d", entries, len(o.next))
	}
	rng := rand.New(rand.NewSource(seed))
	edges := g.Edges()
	for set := 0; set < 5; set++ {
		faults := NewFaultSet(n)
		if set > 0 {
			for i := rng.Intn(3); i > 0; i-- {
				faults.FailNode(rng.Intn(n))
			}
			for i := 1 + rng.Intn(4); i > 0 && len(edges) > 0; i-- {
				e := edges[rng.Intn(len(edges))]
				faults.FailLink(e[0], e[1])
			}
		}
		for _, p := range o.pairs {
			got := ft.WalkUnderFaults(int(p[0]), int(p[1]), faults)
			want := o.walkUnderFaults(int(p[0]), int(p[1]), faults)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("walk %v under %v/%v: %+v, want %+v", p, faults.NodeFaults().Elements(), faults.LinkFaults(), got, want)
			}
		}
	}
}

func TestFailoverMatchesOracle(t *testing.T) {
	c9, err := gen.Cycle(9)
	if err != nil {
		t.Fatal(err)
	}
	q3, err := gen.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	ccc3, err := gen.CCC(3)
	if err != nil {
		t.Fatal(err)
	}
	ccc5, err := gen.CCC(5)
	if err != nil {
		t.Fatal(err)
	}
	gnp, _, err := gen.GnpConnected(24, 0.2, 7, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{{"C9", c9}, {"Q3", q3}, {"CCC3", ccc3}, {"CCC5", ccc5}, {"GNP24", gnp}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "CCC5" && testing.Short() {
				t.Skip("CCC(5) sweep skipped in -short mode")
			}
			r, err := ShortestPath(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			CheckFailoverOracle(t, r, 2, int64(tc.g.N()))
		})
	}
}

// TestFailoverRankCollapse pins the duplicate-next-hop rule on a
// hand-built multirouting: three routes of (0,3) leave node 0 toward 1,
// 1 and 2, so 0 ranks [1 2]; node 1 ranks the hops of routes 0 and 1.
func TestFailoverRankCollapse(t *testing.T) {
	g := diamondGraph(t)
	m := NewMulti(g, 0, false)
	for _, p := range []Path{{0, 1, 3}, {0, 1, 2, 3}, {0, 2, 3}, {0, 2, 1, 3}} {
		if err := m.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Add(Path{2, 1, 0}); err != nil {
		t.Fatal(err)
	}
	ft := CompileFailover(m)
	for _, c := range []struct {
		at   int
		want []int32
	}{{0, []int32{1, 2}}, {1, []int32{3, 2}}, {2, []int32{3, 1}}, {3, nil}} {
		if got := ft.NextRanked(c.at, 0, 3); !slices.Equal(got, c.want) {
			t.Fatalf("NextRanked(%d, 0, 3) = %v, want %v", c.at, got, c.want)
		}
	}
	if ft.MaxRank() != 2 || ft.Entries() != 5 {
		t.Fatalf("MaxRank %d Entries %d, want 2 and 5", ft.MaxRank(), ft.Entries())
	}
	checkTablesMatch(t, g, ft, oracleCompile(m), 1)
}

// TestFailoverPartialAndEarlyStop covers a partial routing (two
// components, so cross pairs have no route and no table entry) and
// pairs whose backups stop early (a bridge leaves no link-disjoint
// alternative).
func TestFailoverPartialAndEarlyStop(t *testing.T) {
	g := graph.New(9)
	// A 4-cycle 0-1-2-3 with a pendant path 3-4-5, and a triangle 6-7-8.
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {3, 4}, {4, 5}, {6, 7}, {7, 8}, {8, 6}} {
		g.MustAddEdge(e[0], e[1])
	}
	r, err := ShortestPath(g)
	if err != nil {
		t.Fatal(err)
	}
	if r.Complete() {
		t.Fatal("routing over two components must be partial")
	}
	m, err := Reinforce(r, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.Get(0, 5)); got != 1 {
		t.Fatalf("pair (0,5) across the bridge carries %d routes, want 1", got)
	}
	if got := len(m.Get(0, 2)); got != 2 {
		t.Fatalf("pair (0,2) on the 4-cycle carries %d routes, want 2", got)
	}
	ft := CompileFailover(m)
	if ft.PairIndex(0, 6) != -1 || ft.NextRanked(0, 0, 6) != nil {
		t.Fatal("cross-component pair must have no entry")
	}
	CheckFailoverOracle(t, r, 2, 3)
	// A routing holding a single unidirectional route.
	one := New(g)
	if err := one.Set(Path{5, 4, 3, 2}); err != nil {
		t.Fatal(err)
	}
	CheckFailoverOracle(t, one, 3, 4)
}
