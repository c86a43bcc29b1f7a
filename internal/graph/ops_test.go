package graph

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadEdgeListRoundTrip(t *testing.T) {
	g := cycleGraph(7)
	g.MustAddEdge(0, 3)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("round trip changed the graph")
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# a comment\nn 3\n\n0 1\n# another\n1 2\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("g = %v", g)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no header", "0 1\n"},
		{"bad count", "n x\n"},
		{"negative count", "n -2\n"},
		{"bad edge", "n 2\n0\n"},
		{"non numeric", "n 2\na b\n"},
		{"loop", "n 2\n1 1\n"},
		{"duplicate", "n 2\n0 1\n1 0\n"},
		{"range", "n 2\n0 5\n"},
		{"huge count", "n 99999999999\n"},
		{"over cap", fmt.Sprintf("n %d\n", MaxNodes+1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadEdgeList(strings.NewReader(tc.in)); err == nil {
				t.Fatalf("input %q should fail", tc.in)
			}
		})
	}
}

func TestGraphJSONRoundTrip(t *testing.T) {
	g := cycleGraph(5)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back Graph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(&back) {
		t.Fatal("JSON round trip changed the graph")
	}
}

func TestGraphJSONRejectsBadNodeCounts(t *testing.T) {
	for _, in := range []string{`{"nodes":-1}`, `{"nodes":99999999999}`} {
		var g Graph
		if err := json.Unmarshal([]byte(in), &g); err == nil {
			t.Fatalf("%s should fail", in)
		}
	}
}

func TestGraphJSONRejectsBadEdges(t *testing.T) {
	var g Graph
	if err := json.Unmarshal([]byte(`{"nodes":2,"edges":[[0,0]]}`), &g); err == nil {
		t.Fatal("self loop should fail")
	}
	if err := json.Unmarshal([]byte(`{broken`), &g); err == nil {
		t.Fatal("syntax error should fail")
	}
}

func TestDegreeSequence(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(0, 3)
	seq := g.DegreeSequence()
	want := []int{3, 1, 1, 1}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v", seq)
		}
	}
}

func TestIsRegular(t *testing.T) {
	if d, ok := cycleGraph(6).IsRegular(); !ok || d != 2 {
		t.Fatalf("cycle: (%d,%v)", d, ok)
	}
	if _, ok := pathGraph(4).IsRegular(); ok {
		t.Fatal("path is not regular")
	}
	if d, ok := New(0).IsRegular(); !ok || d != 0 {
		t.Fatal("empty graph is vacuously regular")
	}
}

func TestComplement(t *testing.T) {
	g := cycleGraph(5)
	c := g.Complement()
	if c.M() != 10-5 {
		t.Fatalf("complement m = %d", c.M())
	}
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			if g.HasEdge(u, v) == c.HasEdge(u, v) {
				t.Fatalf("edge {%d,%d} in both or neither", u, v)
			}
		}
	}
}

func TestDisjointUnion(t *testing.T) {
	g := cycleGraph(3)
	h := pathGraph(2)
	u := g.DisjointUnion(h)
	if u.N() != 5 || u.M() != 4 {
		t.Fatalf("union = %v", u)
	}
	if !u.HasEdge(3, 4) {
		t.Fatal("offset edge missing")
	}
	if u.HasEdge(2, 3) {
		t.Fatal("components should not touch")
	}
}

func TestArticulationPoints(t *testing.T) {
	// Two triangles sharing node 2: node 2 is the only cut vertex.
	g := New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(3, 4)
	g.MustAddEdge(4, 2)
	cuts := g.ArticulationPoints()
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("cuts = %v", cuts)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	cuts := pathGraph(5).ArticulationPoints()
	want := []int{1, 2, 3}
	if len(cuts) != 3 {
		t.Fatalf("cuts = %v", cuts)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("cuts = %v", cuts)
		}
	}
}

func TestArticulationPointsCycle(t *testing.T) {
	if cuts := cycleGraph(6).ArticulationPoints(); len(cuts) != 0 {
		t.Fatalf("cycle has no cut vertices: %v", cuts)
	}
}

func TestBridges(t *testing.T) {
	// Triangle with a pendant edge 2-3: the pendant is the only bridge.
	g := New(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 0)
	g.MustAddEdge(2, 3)
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != [2]int{2, 3} {
		t.Fatalf("bridges = %v", bridges)
	}
}

func TestBridgesPathAndCycle(t *testing.T) {
	if got := pathGraph(4).Bridges(); len(got) != 3 {
		t.Fatalf("path bridges = %v", got)
	}
	if got := cycleGraph(5).Bridges(); len(got) != 0 {
		t.Fatalf("cycle bridges = %v", got)
	}
}

// TestCutsAgainstBruteForce cross-checks articulation points and bridges
// against removal-based definitions on random graphs.
func TestCutsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(9)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					g.MustAddEdge(u, v)
				}
			}
		}
		comps := len(g.ConnectedComponents(nil))
		// Articulation points.
		gotCut := map[int]bool{}
		for _, v := range g.ArticulationPoints() {
			gotCut[v] = true
		}
		for v := 0; v < n; v++ {
			after := len(g.ConnectedComponents(BitsetOf(n, v)))
			// Removing isolated v reduces components; removing a leaf
			// keeps them; a cut vertex increases them (v itself not
			// counted: compare against comps minus the v-only component).
			base := comps
			if g.Degree(v) == 0 {
				base--
			}
			want := after > base
			if gotCut[v] != want {
				t.Fatalf("trial %d: node %d cut=%v want %v\n%s", trial, v, gotCut[v], want, g.DOT("G"))
			}
		}
		// Bridges.
		gotBridge := map[[2]int]bool{}
		for _, e := range g.Bridges() {
			gotBridge[e] = true
		}
		for _, e := range g.Edges() {
			h := g.Clone()
			removeEdge(h, e[0], e[1])
			want := len(h.ConnectedComponents(nil)) > comps
			if gotBridge[e] != want {
				t.Fatalf("trial %d: edge %v bridge=%v want %v", trial, e, gotBridge[e], want)
			}
		}
	}
}

// removeEdge deletes {u,v} from h by rebuilding adjacency (test helper).
func removeEdge(h *Graph, u, v int) {
	fresh := New(h.N())
	for _, e := range h.Edges() {
		if (e[0] == u && e[1] == v) || (e[0] == v && e[1] == u) {
			continue
		}
		fresh.MustAddEdge(e[0], e[1])
	}
	*h = *fresh
}

func TestAllPairsDistances(t *testing.T) {
	g := cycleGraph(6)
	d := g.AllPairsDistances()
	if d[0][3] != 3 || d[1][5] != 2 {
		t.Fatalf("distances wrong: %v", d)
	}
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if d[u][v] != d[v][u] {
				t.Fatal("distance matrix must be symmetric")
			}
		}
	}
}
