package core

import (
	"fmt"
	"strings"
	"testing"

	"ftroute/internal/connectivity"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
)

// referenceTrees is the tree-routing path before network reuse: one
// fresh Lemma 2 network per job (the one-shot DisjointPathsToSet),
// solved and installed serially in job order.
func referenceTrees(tj *treeJobs, install func(paths [][]int) error) error {
	for _, j := range tj.jobs {
		paths, err := connectivity.DisjointPathsToSet(tj.g, j.src, tj.sets[j.set], tj.k)
		if err != nil {
			return treeError(j.src, err)
		}
		if err := install(paths); err != nil {
			return err
		}
	}
	return nil
}

// withReference runs fn with every construction on referenceTrees.
func withReference(fn func()) {
	runTrees = referenceTrees
	defer func() { runTrees = (*treeJobs).solve }()
	fn()
}

type jsonMarshaler interface{ MarshalJSON() ([]byte, error) }

// constructionOutput is a construction's MarshalJSON bytes, or its error
// text when construction fails.
func constructionOutput(r jsonMarshaler, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := r.MarshalJSON()
	if err != nil {
		return "marshal error: " + err.Error()
	}
	return string(b)
}

// referenceFamilies are the graphs the byte-identity test builds every
// construction on.
func referenceFamilies(t testing.TB) []struct {
	name string
	g    *graph.Graph
} {
	type family = struct {
		name string
		g    *graph.Graph
	}
	var out []family
	add := func(name string, g *graph.Graph, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, family{name, g})
	}
	for _, n := range []int{9, 16, 24, 45} {
		g, err := gen.Cycle(n)
		add(fmt.Sprintf("C%d", n), g, err)
	}
	out = append(out, family{"petersen", gen.Petersen()})
	for d := 3; d <= 5; d++ {
		g, err := gen.CCC(d)
		add(fmt.Sprintf("CCC(%d)", d), g, err)
	}
	for d := 4; d <= 6; d++ {
		g, err := gen.Hypercube(d)
		add(fmt.Sprintf("Q%d", d), g, err)
	}
	for seed := int64(1); seed <= 2; seed++ {
		g, _, err := gen.RandomRegularConnected(60, 3, seed, 100)
		add(fmt.Sprintf("RR(60,3,%d)", seed), g, err)
		g, _, err = gen.RandomRegularConnected(40, 4, seed, 100)
		add(fmt.Sprintf("RR(40,4,%d)", seed), g, err)
		g, _, err = gen.GnpConnected(30, 0.2, seed, 100)
		add(fmt.Sprintf("GNP(30,0.2,%d)", seed), g, err)
	}
	return out
}

// referenceConstructions lists every construction built from tree
// routings, each at the graph's own tolerance and at one more fault
// than the graph tolerates (so that the Lemma 2 failure path and its
// error text are pinned too).
func referenceConstructions(g *graph.Graph, over int) map[string]string {
	out := map[string]string{}
	for _, tc := range []struct {
		name string
		opts Options
	}{{"", Options{}}, {" over", Options{Tolerance: over}}, {" minimal", Options{MinimalK: true}}} {
		r, _, err := Kernel(g, tc.opts)
		out["kernel"+tc.name] = constructionOutput(r, err)
		r, _, err = Circular(g, tc.opts)
		out["circular"+tc.name] = constructionOutput(r, err)
		r, _, err = TriCircular(g, tc.opts)
		out["tricircular"+tc.name] = constructionOutput(r, err)
		r, _, err = BipolarUnidirectional(g, tc.opts)
		out["bipolar-uni"+tc.name] = constructionOutput(r, err)
		r, _, err = BipolarBidirectional(g, tc.opts)
		out["bipolar-bi"+tc.name] = constructionOutput(r, err)
		mr, _, err := KernelMultirouting(g, tc.opts)
		out["kernel-multi"+tc.name] = constructionOutput(mr, err)
		mr, _, err = TwoRouteMultirouting(g, tc.opts)
		out["two-route"+tc.name] = constructionOutput(mr, err)
		_, r, _, err = CliqueAugmentedKernel(g, tc.opts)
		out["clique-kernel"+tc.name] = constructionOutput(r, err)
	}
	return out
}

// TestConstructionsMatchReference pins every construction's routing,
// byte for byte, and its error text when construction fails, to the
// serial fresh-network reference. Run it at several -cpu values: the
// parallel solver must not depend on how many workers interleave.
func TestConstructionsMatchReference(t *testing.T) {
	for _, fam := range referenceFamilies(t) {
		k, _, err := connectivity.VertexConnectivity(fam.g)
		if err != nil {
			t.Fatalf("%s: %v", fam.name, err)
		}
		got := referenceConstructions(fam.g, k)
		var want map[string]string
		withReference(func() { want = referenceConstructions(fam.g, k) })
		built := 0
		for name, w := range want {
			if g := got[name]; g != w {
				t.Errorf("%s %s: solver output differs from the reference\n got: %.200s\nwant: %.200s", fam.name, name, g, w)
			}
			if !strings.HasPrefix(w, "error: ") {
				built++
			}
		}
		if built == 0 {
			t.Errorf("%s: no construction applies, so nothing is pinned", fam.name)
		}
	}
}
