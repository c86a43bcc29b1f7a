package experiments

import (
	"fmt"
	"time"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

func init() {
	register("E21", runE21)
}

// runE21 measures the branch-and-bound exhaustive adversary across the
// anchor ladder. Each instance is a Circular routing on a paper family;
// the exhaustive node-fault search runs three ways — plain engine,
// Config.Bounded (multi-pivot diameterAbove against the enumeration's
// incumbent), and Bounded through the work-stealing parallel driver —
// and the three results must agree bit for bit on diameter,
// disconnection, witness and evaluated-set count. Full scale extends
// the ladder to the thousand-node anchors CCC(7) (896 nodes) and Q10
// (1024 nodes), where the checked-in benchmark gate requires the
// bounded+parallel configuration to beat the plain serial engine by at
// least 4x.
func runE21(scale Scale) (*Table, error) {
	t := &Table{
		ID:         "E21",
		Title:      "Extension: branch-and-bound adversary search on thousand-node anchors",
		PaperClaim: "the paper's worst-case tolerance claims quantify over every fault set of size <= f; deciding D(R/F) > bound needs far less work than computing D(R/F) once an incumbent bound exists, so exhaustive certification scales beyond toy instances",
		Header:     []string{"graph", "n", "pairs", "f", "sets", "plain ms", "bounded ms", "b+par ms", "speedup", "agree"},
	}
	type item struct {
		name string
		g    *graph.Graph
		f    int
	}
	items := []item{
		{"cycle C16", must(gen.Cycle(16)), 2},
		{"CCC(3)", must(gen.CCC(3)), 2},
		{"CCC(4)", must(gen.CCC(4)), 1},
	}
	if scale == Full {
		items = append(items,
			item{"CCC(7)", must(gen.CCC(7)), 1},
			item{"hypercube Q10", must(gen.Hypercube(10)), 1},
		)
	}
	for _, it := range items {
		r, _, err := core.Circular(it.g, core.Options{Tolerance: 1})
		if err != nil {
			return nil, fmt.Errorf("E21 %s: %w", it.name, err)
		}
		cfg := eval.Config{Mode: eval.Exhaustive}
		cfgB := eval.Config{Mode: eval.Exhaustive, Bounded: true}
		t0 := time.Now()
		plain := eval.MaxDiameter(r, it.f, cfg)
		plainMS := time.Since(t0)
		t0 = time.Now()
		bounded := eval.MaxDiameter(r, it.f, cfgB)
		boundedMS := time.Since(t0)
		t0 = time.Now()
		par := eval.MaxDiameterParallel(r, it.f, cfgB, 0)
		parMS := time.Since(t0)
		t.AddRow(it.name, it.g.N(), pairCount(r), it.f,
			plain.Evaluated, msCell(plainMS), msCell(boundedMS), msCell(parMS),
			fmt.Sprintf("%.1fx", float64(plainMS)/float64(parMS)),
			agreeCell(plain, bounded, par))
	}
	t.Notes = append(t.Notes,
		"routing = the paper's Circular construction at tolerance 1; pairs = routed ordered pairs (the arcs of the unfaulted route graph R(G,rho))",
		"plain = exhaustive engine search, one full word-parallel BFS diameter per fault set; bounded = Config.Bounded, the multi-pivot diameterAbove kernel against the enumeration's incumbent; b+par = bounded through MaxDiameterParallel's work-stealing clones sharing the (score, unit) incumbent atomically",
		"agree checks all three searches bit for bit: worst diameter, disconnection flag, witness fault set and evaluated-set count must coincide (ok = they do; any divergence is flagged as a violated bound)",
		"speedup = plain ms / b+par ms; the CI benchmark gate pins BenchmarkExhaustiveBoundedParallelCCC7F1 at <= 1/4 of BenchmarkExhaustiveEngineCCC7F1 (see docs/perf.md)",
		"wall-clock columns vary run to run and machine to machine; set counts, diameters and witnesses are deterministic")
	return t, nil
}

// pairCount counts the routed ordered pairs of a route source.
func pairCount(r eval.RouteSource) int {
	seen := make(map[[2]int]bool)
	r.EachRoute(func(u, v int, p routing.Path) { seen[[2]int{u, v}] = true })
	return len(seen)
}

// agreeCell renders the three-way bit-identity check of E21.
func agreeCell(plain, bounded, par eval.Result) string {
	d := plain.MaxDiameter
	if plain.Disconnected {
		d = -1
	}
	for _, other := range []eval.Result{bounded, par} {
		if other.MaxDiameter != plain.MaxDiameter || other.Disconnected != plain.Disconnected ||
			other.Evaluated != plain.Evaluated ||
			other.WorstFaults.String() != plain.WorstFaults.String() {
			return fmt.Sprintf("%s VIOLATED (%v)", diamStr(d), other)
		}
	}
	return diamStr(d) + " ok"
}
