package connectivity

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// TestBadInputsAreErrors checks that invalid nodes and repeated target
// members are reported as errors, never as panics or as paths that
// share an endpoint.
func TestBadInputsAreErrors(t *testing.T) {
	g := mustGen(t)(gen.CCC(3)) // 24 nodes
	toSet := []struct {
		name    string
		x       int
		members []int
	}{
		{"duplicate member", 10, []int{1, 1, 2}},
		{"member below range", 10, []int{-1, 2}},
		{"member above range", 10, []int{1, 199}},
		{"x below range", -1, []int{1, 2}},
		{"x above range", 24, []int{1, 2}},
		{"x in M", 2, []int{1, 2}},
	}
	for _, tc := range toSet {
		t.Run("DisjointPathsToSet "+tc.name, func(t *testing.T) {
			paths, err := DisjointPathsToSet(g, tc.x, tc.members, 3)
			if err == nil || errors.Is(err, ErrTooFewPaths) {
				t.Fatalf("want a validation error, got paths %v, err %v", paths, err)
			}
		})
	}
	pairs := []struct {
		name string
		s, t int
	}{
		{"s below range", -1, 5},
		{"t above range", 5, 24},
		{"both out of range", 24, 199},
		{"s == t", 5, 5},
	}
	for _, tc := range pairs {
		t.Run(tc.name, func(t *testing.T) {
			if k, err := STConnectivity(g, tc.s, tc.t); err == nil {
				t.Errorf("STConnectivity = %d, want an error", k)
			}
			if sep, err := STSeparator(g, tc.s, tc.t); err == nil {
				t.Errorf("STSeparator = %v, want an error", sep)
			}
			if paths, err := DisjointPaths(g, tc.s, tc.t, 2); err == nil {
				t.Errorf("DisjointPaths = %v, want an error", paths)
			}
		})
	}
}

// randomKConnected returns a seeded random connected graph on n nodes
// and its connectivity κ >= 1.
func randomKConnected(seed int64, n int) (*graph.Graph, int, error) {
	var g *graph.Graph
	var err error
	if seed%2 == 0 {
		g, _, err = gen.RandomRegularConnected(n+n%2, 3+int(seed%4)/2, seed, 50)
	} else {
		g, _, err = gen.GnpConnected(n, 0.25, seed, 50)
	}
	if err != nil {
		return nil, 0, err
	}
	k, _, err := VertexConnectivity(g)
	if err != nil && !errors.Is(err, ErrComplete) {
		return nil, 0, err
	}
	return g, k, nil
}

// TestToSetMatchesReference runs many sources, in shuffled order, on one
// ToSet per target set and compares every answer — paths or error text —
// with a fresh reference network per call.
func TestToSetMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		g, kappa, err := randomKConnected(int64(trial), 10+rng.Intn(30))
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		perm := rng.Perm(n)
		members := append([]int(nil), perm[:1+rng.Intn(n/2)]...)
		ts, err := NewToSet(g, members)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range rng.Perm(n) {
			k := 1 + rng.Intn(kappa+1)
			got, gotErr := ts.Paths(x, k)
			var want [][]int
			var wantErr error
			if containsNode(members, x) {
				wantErr = fmt.Errorf("connectivity: x=%d is a member of the target set", x)
			} else {
				want, wantErr = referencePathsToSet(g, x, members, k)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d x=%d k=%d M=%v:\n got %v, %v\nwant %v, %v", trial, x, k, members, got, gotErr, want, wantErr)
			}
			if gotErr == nil {
				checkTreeRouting(t, g, x, members, got)
			}
		}
	}
}

func containsNode(nodes []int, v int) bool {
	for _, u := range nodes {
		if u == v {
			return true
		}
	}
	return false
}

// TestVertexConnectivityMatchesReference pins κ(G) and the separator
// returned, on the shared network with capped flows, to the fresh
// network per pair with uncapped flows, and IsKConnected to κ.
func TestVertexConnectivityMatchesReference(t *testing.T) {
	graphs := []*graph.Graph{gen.Petersen(), mustGen(t)(gen.CCC(4)), mustGen(t)(gen.Hypercube(5)), mustGen(t)(gen.Torus(4, 6))}
	for seed := int64(0); seed < 12; seed++ {
		g, _, err := randomKConnected(seed, 12+int(seed)*3)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, g)
	}
	for i, g := range graphs {
		k, sep, err := VertexConnectivity(g)
		if errors.Is(err, ErrComplete) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		wantK, wantSep := referenceConnectivity(g)
		if k != wantK || !reflect.DeepEqual(sep, wantSep) {
			t.Fatalf("graph %d: κ=%d sep=%v, reference κ=%d sep=%v", i, k, sep, wantK, wantSep)
		}
		if ok, _ := IsKConnected(g, k); !ok {
			t.Fatalf("graph %d: not %d-connected", i, k)
		}
		if ok, _ := IsKConnected(g, k+1); ok {
			t.Fatalf("graph %d: %d-connected beyond κ=%d", i, k+1, k)
		}
	}
}

// FuzzDisjointPathsToSet drives the Lemma 2 primitive with a seeded
// random graph, a source and a target set taken from the fuzzer's bytes
// (out-of-range and repeated nodes included). Bad inputs must give
// errors, never panics. Valid ones must match the fresh reference
// network exactly, also on a ToSet that first served another source, and
// meet the Lemma 2 contract: exactly k paths, disjoint except at x, with
// distinct endpoints in M, internal nodes outside M, and the direct-edge
// shortcut applied.
func FuzzDisjointPathsToSet(f *testing.F) {
	f.Add(int64(1), uint8(10), 3, []byte{1, 2, 3, 9}, uint8(2))
	f.Add(int64(2), uint8(22), 0, []byte{5, 5, 7}, uint8(3))
	f.Add(int64(3), uint8(6), 40, []byte{0, 200}, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, size uint8, x int, raw []byte, kRaw uint8) {
		g, _, err := randomKConnected(seed, 6+int(size%34))
		if err != nil {
			t.Skip()
		}
		n := g.N()
		members := make([]int, 0, len(raw))
		for _, b := range raw {
			members = append(members, int(b)%(n+4)-2)
		}
		k := int(kRaw) % (len(members) + 2)

		valid := x >= 0 && x < n && !containsNode(members, x)
		seen := map[int]bool{}
		for _, m := range members {
			valid = valid && m >= 0 && m < n && !seen[m]
			seen[m] = true
		}
		paths, err := DisjointPathsToSet(g, x, members, k)
		if !valid {
			if err == nil || errors.Is(err, ErrTooFewPaths) {
				t.Fatalf("x=%d M=%v: want a validation error, got %v, %v", x, members, paths, err)
			}
			return
		}
		want, wantErr := referencePathsToSet(g, x, members, k)
		if k <= 0 {
			want, wantErr = nil, nil
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(paths, want) {
			t.Fatalf("x=%d k=%d M=%v:\n got %v, %v\nwant %v, %v", x, k, members, paths, err, want, wantErr)
		}
		ts, terr := NewToSet(g, members)
		if terr != nil {
			t.Fatal(terr)
		}
		if other := (x + 1) % n; !seen[other] {
			ts.Paths(other, k)
		}
		if again, aerr := ts.Paths(x, k); fmt.Sprint(aerr) != fmt.Sprint(err) || !reflect.DeepEqual(again, paths) {
			t.Fatalf("reused ToSet: got %v, %v want %v, %v", again, aerr, paths, err)
		}
		if err != nil {
			if !errors.Is(err, ErrTooFewPaths) {
				t.Fatalf("valid input gave %v", err)
			}
			return
		}
		if len(paths) != max(k, 0) {
			t.Fatalf("want %d paths, got %v", k, paths)
		}
		checkTreeRouting(t, g, x, members, paths)
	})
}
