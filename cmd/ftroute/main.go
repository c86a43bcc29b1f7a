// Command ftroute is a command-line front end to the fault-tolerant
// routing library.
//
// Usage:
//
//	ftroute info  -graph <spec>
//	ftroute plan  -graph <spec>
//	ftroute route -graph <spec> [-construction auto|kernel|circular|tricircular|bipolar|bipolar-bi]
//	ftroute orbits -graph <spec> [-faults k]
//	ftroute tolerate -graph <spec> [-construction ...] [-faults k] [-samples n] [-seed s] [-exhaustive] [-pruned] [-mixed]
//	ftroute simulate -graph <spec> [-construction ...] [-faults k] [-samples n] [-seed s]
//	ftroute failover -graph <spec> [-construction ...] [-cuts k] [-backups b] [-retries r] [-messages n] [-samples n] [-seed s] [-exhaustive] [-pruned] [-mixed] [-lambda w]
//	ftroute export   -graph <spec> [-construction ...] -table routing.json
//	ftroute check    -graph <spec> -table routing.json -bound d [-faults k] [-seed s] [-exhaustive]
//
// All sampled adversaries and simulated workloads draw their randomness
// from -seed (default 1), so any run reproduces end to end from the
// command line.
//
// Graph specs:
//
//	cycle:N            cycle on N nodes (connectivity 2)
//	path:N             path on N nodes
//	grid:RxC           R-by-C grid (planar)
//	torus:RxC          R-by-C torus (connectivity 4)
//	hypercube:D        D-dimensional hypercube
//	ccc:D              cube-connected cycles
//	butterfly:D        wrapped butterfly
//	debruijn:D         binary de Bruijn graph
//	harary:KxN         Harary graph H(K,N) (connectivity K)
//	petersen           the Petersen graph
//	icosahedron        the icosahedron (planar, connectivity 5)
//	gnp:N:P:SEED       Erdős–Rényi G(N,P)
//	regular:N:D:SEED   random D-regular graph
//	file:PATH          edge-list file (see cmd/ftgen)
//
// Examples:
//
//	ftroute info -graph ccc:4
//	ftroute tolerate -graph cycle:45 -construction tricircular -exhaustive
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftroute"
	"ftroute/internal/graph"
	"ftroute/internal/netsim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ftroute:", err)
		os.Exit(1)
	}
}

var errUsage = errors.New("usage: ftroute <info|plan|route|orbits|tolerate|simulate|failover|export|check> -graph <spec> [flags]")

func run(args []string) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	var (
		graphSpec    = fs.String("graph", "", "graph specification (see command doc)")
		construction = fs.String("construction", "auto", "auto|kernel|circular|tricircular|bipolar|bipolar-bi|shortest")
		faults       = fs.Int("faults", -1, "fault budget (default: tolerance t)")
		samples      = fs.Int("samples", 200, "random fault sets when not exhaustive")
		exhaustive   = fs.Bool("exhaustive", false, "enumerate all fault sets (exponential); tolerate's worst-case search runs branch and bound, with results bit-identical to measuring every set (docs/perf.md)")
		pruned       = fs.Bool("pruned", false, "exhaustive searches: evaluate one fault set per automorphism orbit when the routing respects the symmetry (falls back silently otherwise)")
		mixed        = fs.Bool("mixed", false, "tolerate/failover: spend the fault budget on nodes and links combined")
		lambda       = fs.Float64("lambda", 0, "failover -mixed: weight of skipped pairs in the adversary objective disrupted+lambda*skipped")
		table        = fs.String("table", "", "routing-table file for export/check")
		bound        = fs.Int("bound", -1, "diameter bound to check (default: construction's bound)")
		cuts         = fs.Int("cuts", 2, "failover: adversary's link-cut budget")
		backups      = fs.Int("backups", 2, "failover: link-disjoint backup routes per pair")
		retries      = fs.Int("retries", 2, "failover: walk restarts allowed per message in the simulation")
		messages     = fs.Int("messages", 300, "failover: messages in the fault-injection workload")
		seed         = fs.Int64("seed", 1, "RNG seed for sampled adversaries and simulated workloads")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *graphSpec == "" {
		return errUsage
	}
	g, err := parseGraph(*graphSpec)
	if err != nil {
		return err
	}
	switch cmd {
	case "info":
		return info(g)
	case "plan":
		return plan(g)
	case "route":
		_, _, err := build(g, *construction)
		return err
	case "orbits":
		return orbits(g, *faults)
	case "tolerate":
		return tolerate(g, *construction, *faults, *samples, *seed, *exhaustive, *pruned, *mixed)
	case "simulate":
		return simulate(g, *construction, *faults, *samples, *seed)
	case "failover":
		return failover(g, *construction, *cuts, *backups, *retries, *messages, *samples, *seed, *exhaustive, *pruned, *mixed, *lambda)
	case "export":
		return export(g, *construction, *table)
	case "check":
		return check(g, *table, *bound, *faults, *samples, *seed, *exhaustive)
	default:
		return fmt.Errorf("%w: unknown subcommand %q", errUsage, cmd)
	}
}

// simulate builds the requested routing, fails `faults` spread-out nodes
// and runs a message workload of `samples` sends, printing delivery
// statistics and the route-counter broadcast result.
func simulate(g *ftroute.Graph, construction string, faults, samples int, seed int64) error {
	r, bt, err := build(g, construction)
	if err != nil {
		return err
	}
	rt, ok := r.(*ftroute.Routing)
	if !ok {
		return fmt.Errorf("ftroute: simulate supports single routings, not multiroutings")
	}
	if faults < 0 {
		faults = bt[1]
	}
	nw := netsim.New(rt, netsim.Params{HopCost: 1, EndpointCost: 10})
	stride := g.N() / (faults + 1)
	if stride == 0 {
		stride = 1
	}
	var failed []int
	for i := 1; i <= faults && len(failed) < g.N()-2; i++ {
		v := (i * stride) % g.N()
		nw.Fail(v)
		failed = append(failed, v)
	}
	fmt.Printf("failed nodes: %v\n", failed)
	if samples <= 0 {
		samples = 200
	}
	stats, err := nw.RunWorkload(netsim.Workload{Messages: samples, Seed: seed}, nil)
	if err != nil {
		return err
	}
	fmt.Printf("workload: %s\n", stats)
	diam, connected := nw.SurvivingGraph().Diameter()
	if !connected {
		fmt.Println("surviving route graph: disconnected")
		return nil
	}
	fmt.Printf("surviving route graph diameter: %d\n", diam)
	origin := 0
	for nw.Faults().Has(origin) {
		origin++
	}
	bc, err := nw.Broadcast(origin, diam)
	if err != nil {
		return err
	}
	fmt.Printf("broadcast from %d with bound %d: reached %d nodes (all=%v), max counter %d\n",
		origin, diam, len(bc.Reached), bc.AllReached, bc.MaxCounter)
	return nil
}

// failover compiles the requested routing to static-failover tables,
// both plain (rank-1) and reinforced with link-disjoint backups, runs
// the packet-level adversary against both — over link cuts only, or
// with -mixed over the paper's literal fault model of failed nodes and
// links combined — and then replays the plain tables' worst fault set
// as a mid-run fault-injection in the simulator: the faults land a
// third of the way through the workload and are repaired at two
// thirds, with each stuck message retrying from its stuck node.
func failover(g *ftroute.Graph, construction string, cuts, backups, retries, messages, samples int, seed int64, exhaustive, pruned, mixed bool, lambda float64) error {
	r, _, err := build(g, construction)
	if err != nil {
		return err
	}
	rt, ok := r.(*ftroute.Routing)
	if !ok {
		return fmt.Errorf("ftroute: failover supports single routings, not multiroutings")
	}
	plain := ftroute.FailoverFromRouting(rt)
	m, err := ftroute.Reinforce(rt, backups)
	if err != nil {
		return err
	}
	reinforced := ftroute.CompileFailover(m)
	fmt.Printf("tables: plain %d entries (rank 1), reinforced %d entries (rank <= %d)\n",
		plain.Entries(), reinforced.Entries(), reinforced.MaxRank())
	cfg := ftroute.EvalConfig{Mode: ftroute.Sampled, Samples: samples, Greedy: true, Seed: seed}
	mode := "sampled+greedy+concentrator"
	if exhaustive {
		cfg = ftroute.EvalConfig{Mode: ftroute.Exhaustive, Pruned: pruned}
		mode = "exhaustive"
		if pruned {
			mode = "exhaustive, orbit-pruned"
		}
	}
	cfg.SkippedWeight = lambda
	var worstNodes []int
	var worstCuts []ftroute.EdgeFault
	if mixed {
		pw := ftroute.WorstMixedFaultsParallel(plain, g, cuts, cfg, 0)
		rw := ftroute.WorstMixedFaultsParallel(reinforced, g, cuts, cfg, 0)
		if lambda != 0 {
			fmt.Printf("adversary (%s, mixed node+link budget %d, objective disrupted+%g*skipped):\n", mode, cuts, lambda)
		} else {
			fmt.Printf("adversary (%s, mixed node+link budget %d):\n", mode, cuts)
		}
		fmt.Printf("  plain:      %s\n", pw)
		fmt.Printf("  reinforced: %s\n", rw)
		fmt.Printf("  reinforced under plain's worst mixed set: %s\n",
			ftroute.EvaluateMixedFaults(reinforced, pw.WorstNodes, pw.WorstCuts))
		worstNodes, worstCuts = pw.WorstNodes, pw.WorstCuts
	} else {
		pw := ftroute.WorstLinkCutsParallel(plain, g, cuts, cfg, 0)
		rw := ftroute.WorstLinkCutsParallel(reinforced, g, cuts, cfg, 0)
		fmt.Printf("adversary (%s, budget %d):\n", mode, cuts)
		fmt.Printf("  plain:      %s\n", pw)
		fmt.Printf("  reinforced: %s\n", rw)
		fmt.Printf("  reinforced under plain's worst cut: %s\n", ftroute.EvaluateLinkCuts(reinforced, pw.Worst))
		worstCuts = pw.Worst
	}
	if messages <= 0 {
		messages = 300
	}
	var schedule []netsim.FaultEvent
	for _, v := range worstNodes {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: messages / 3, Node: v},
			netsim.FaultEvent{AfterMessage: 2 * messages / 3, Node: v, Repair: true})
	}
	for _, e := range worstCuts {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: messages / 3, Link: true, U: e.U, V: e.V},
			netsim.FaultEvent{AfterMessage: 2 * messages / 3, Link: true, U: e.U, V: e.V, Repair: true})
	}
	wl := netsim.Workload{Messages: messages, Seed: seed}
	if mixed {
		fmt.Printf("simulation (%d messages, faults F=%v E=%v injected at %d, repaired at %d, retries %d):\n",
			messages, worstNodes, worstCuts, messages/3, 2*messages/3, retries)
	} else {
		fmt.Printf("simulation (%d messages, cut %v injected at %d, repaired at %d, retries %d):\n",
			messages, worstCuts, messages/3, 2*messages/3, retries)
	}
	for _, tc := range []struct {
		name   string
		tables *ftroute.FailoverTables
	}{{"plain", plain}, {"reinforced", reinforced}} {
		nw := netsim.New(rt, netsim.Params{HopCost: 1, EndpointCost: 10})
		stats, err := nw.RunFailoverWorkload(wl, schedule, netsim.FailoverParams{Tables: tc.tables, Retries: retries})
		if err != nil {
			return err
		}
		fmt.Printf("  %-10s %s\n", tc.name, stats)
	}
	return nil
}

// export builds a routing and writes its JSON table to -table (or
// stdout), completing the paper's "compute the table once, distribute
// it" workflow.
func export(g *ftroute.Graph, construction, table string) error {
	r, _, err := build(g, construction)
	if err != nil {
		return err
	}
	rt, ok := r.(*ftroute.Routing)
	if !ok {
		return fmt.Errorf("ftroute: export supports single routings, not multiroutings")
	}
	if table == "" {
		_, err := rt.WriteTo(os.Stdout)
		return err
	}
	f, err := os.Create(table)
	if err != nil {
		return err
	}
	if _, err := rt.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	// A delayed write failure surfaces only at Close.
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d routes to %s\n", rt.Len(), table)
	return nil
}

// check loads a previously exported routing table, re-validates it
// against the graph and verifies a (bound, faults) tolerance claim.
func check(g *ftroute.Graph, table string, bound, faults, samples int, seed int64, exhaustive bool) error {
	if table == "" {
		return fmt.Errorf("ftroute: check requires -table")
	}
	data, err := os.ReadFile(table)
	if err != nil {
		return err
	}
	rt, err := ftroute.DecodeRoutingTable(g, data)
	if err != nil {
		return fmt.Errorf("ftroute: table rejected: %w", err)
	}
	k, _, err := ftroute.VertexConnectivity(g)
	if err != nil {
		return err
	}
	if faults < 0 {
		faults = k - 1
	}
	if bound < 0 {
		return fmt.Errorf("ftroute: check requires -bound")
	}
	cfg := ftroute.EvalConfig{Mode: ftroute.Sampled, Samples: samples, Greedy: true, Seed: seed}
	mode := "sampled"
	if exhaustive {
		cfg = ftroute.EvalConfig{Mode: ftroute.Exhaustive}
		mode = "exhaustive"
	}
	if err := ftroute.CheckTolerance(rt, bound, faults, cfg); err != nil {
		return err
	}
	fmt.Printf("table %s verified (%s): surviving diameter <= %d for |F| <= %d\n", table, mode, bound, faults)
	return nil
}

// parseGraph builds a graph from a spec string.
func parseGraph(spec string) (*ftroute.Graph, error) {
	parts := strings.Split(spec, ":")
	atoi := func(s string) int { v, _ := strconv.Atoi(s); return v }
	dims := func(s string) (int, int, error) {
		xy := strings.Split(s, "x")
		if len(xy) != 2 {
			return 0, 0, fmt.Errorf("ftroute: bad dimensions %q (want RxC)", s)
		}
		return atoi(xy[0]), atoi(xy[1]), nil
	}
	switch parts[0] {
	case "file":
		f, err := os.Open(strings.TrimPrefix(spec, "file:"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	case "cycle":
		return ftroute.Cycle(atoi(parts[1]))
	case "path":
		return ftroute.PathGraph(atoi(parts[1]))
	case "grid":
		r, c, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.Grid(r, c)
	case "torus":
		r, c, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.Torus(r, c)
	case "hypercube":
		return ftroute.Hypercube(atoi(parts[1]))
	case "ccc":
		return ftroute.CCC(atoi(parts[1]))
	case "butterfly":
		return ftroute.WrappedButterfly(atoi(parts[1]))
	case "debruijn":
		return ftroute.DeBruijn(atoi(parts[1]))
	case "harary":
		k, n, err := dims(parts[1])
		if err != nil {
			return nil, err
		}
		return ftroute.Harary(k, n)
	case "petersen":
		return ftroute.Petersen(), nil
	case "icosahedron":
		return ftroute.Icosahedron(), nil
	case "gnp":
		if len(parts) != 4 {
			return nil, fmt.Errorf("ftroute: gnp wants gnp:N:P:SEED")
		}
		p, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, err
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, err
		}
		return ftroute.Gnp(atoi(parts[1]), p, seed)
	case "regular":
		if len(parts) != 4 {
			return nil, fmt.Errorf("ftroute: regular wants regular:N:D:SEED")
		}
		seed, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, err
		}
		return ftroute.RandomRegular(atoi(parts[1]), atoi(parts[2]), seed)
	default:
		return nil, fmt.Errorf("ftroute: unknown graph family %q", parts[0])
	}
}

func info(g *ftroute.Graph) error {
	fmt.Printf("nodes:        %d\n", g.N())
	fmt.Printf("edges:        %d\n", g.M())
	fmt.Printf("degree:       min %d, max %d, avg %.2f\n", g.MinDegree(), g.MaxDegree(), g.AverageDegree())
	if diam, ok := g.Diameter(nil); ok {
		fmt.Printf("diameter:     %d\n", diam)
	} else {
		fmt.Printf("diameter:     disconnected\n")
	}
	k, sep, err := ftroute.VertexConnectivity(g)
	if err != nil {
		fmt.Printf("connectivity: %d (complete graph)\n", k)
		return nil
	}
	fmt.Printf("connectivity: %d (tolerance t = %d), min separator %v\n", k, k-1, sep)
	nset := ftroute.NeighborhoodSet(g)
	fmt.Printf("neighborhood set (Lemma 15): %d nodes\n", len(nset))
	if tt, err := ftroute.FindTwoTrees(g); err == nil {
		fmt.Printf("two-trees property: yes, roots (%d, %d)\n", tt.R1, tt.R2)
	} else {
		fmt.Printf("two-trees property: no\n")
	}
	return nil
}

// orbits reports the graph's automorphism group, its node/edge/mixed
// orbit structure, and the pruning factors orbit enumeration would earn
// over plain exhaustive enumeration at the given fault budget — the
// structure EvalConfig.Pruned exploits (see docs/symmetry.md).
func orbits(g *ftroute.Graph, faults int) error {
	const cap = 1 << 14
	gr := ftroute.Automorphisms(g)
	elems := ftroute.GroupElements(gr.N, gr.Gens, cap)
	if elems == nil {
		fmt.Printf("automorphism group: order > %d — orbit analysis capped (Pruned would fall back)\n", cap)
		return nil
	}
	fmt.Printf("automorphism group: order %d (%d generators)\n", len(elems), len(gr.Gens))
	fmt.Printf("orbits: %d node, %d edge, %d mixed item\n",
		ftroute.OrbitCount(ftroute.NodeOrbits(g.N(), elems)),
		ftroute.OrbitCount(ftroute.EdgeOrbits(g, elems)),
		ftroute.OrbitCount(ftroute.MixedOrbits(g, elems)))
	if faults < 0 {
		faults = 2
	}
	ix := ftroute.NewEdgeItemIndex(g)
	edgeElems := make([][]int, 0, len(elems))
	mixedElems := make([][]int, 0, len(elems))
	for _, p := range elems {
		ep, ok := ix.Perm(p)
		if !ok {
			return fmt.Errorf("ftroute: internal: automorphism does not permute the edges")
		}
		mp, ok := ix.MixedPerm(p)
		if !ok {
			return fmt.Errorf("ftroute: internal: automorphism does not permute the mixed items")
		}
		edgeElems = append(edgeElems, ep)
		mixedElems = append(mixedElems, mp)
	}
	fmt.Printf("orbit pruning of exhaustive fault enumeration, budget <= %d:\n", faults)
	for _, u := range []struct {
		name  string
		items int
		elems [][]int
	}{
		{"node faults ", g.N(), elems},
		{"link cuts   ", g.M(), edgeElems},
		{"mixed faults", g.N() + g.M(), mixedElems},
	} {
		reps, total := ftroute.NewOrbitEnumerator(u.items, u.elems).Count(faults)
		factor := "-"
		if reps > 0 {
			factor = fmt.Sprintf("%.1fx", float64(total)/float64(reps))
		}
		fmt.Printf("  %s %d representatives for %d non-empty sets (%s)\n", u.name, reps, total, factor)
	}
	return nil
}

func plan(g *ftroute.Graph) error {
	p, err := ftroute.Auto(g, ftroute.Options{})
	if err != nil {
		return err
	}
	fmt.Printf("construction: %s\n", p.Construction)
	fmt.Printf("guarantee:    surviving diameter <= %d for up to %d faults\n", p.Bound, p.T)
	fmt.Printf("direction:    bidirectional=%v\n", p.Bidirected)
	fmt.Printf("reason:       %s\n", p.Reason)
	st := p.Routing.Stats()
	fmt.Printf("routes:       %d ordered pairs, max length %d, avg length %.2f\n", st.Pairs, st.MaxLen, st.AvgLen)
	return nil
}

// build constructs the requested routing and prints a summary. It
// returns the routing and its guaranteed (bound, t).
func build(g *ftroute.Graph, construction string) (interface {
	SurvivingGraph(*ftroute.Bitset) *ftroute.Digraph
	Graph() *ftroute.Graph
}, [2]int, error) {
	switch construction {
	case "auto":
		p, err := ftroute.Auto(g, ftroute.Options{})
		if err != nil {
			return nil, [2]int{}, err
		}
		fmt.Printf("auto chose %s: (%d, %d)-tolerant — %s\n", p.Construction, p.Bound, p.T, p.Reason)
		return p.Routing, [2]int{p.Bound, p.T}, nil
	case "kernel":
		r, inf, err := ftroute.Kernel(g, ftroute.Options{})
		if err != nil {
			return nil, [2]int{}, err
		}
		bound := 2 * inf.T
		if bound < 4 {
			bound = 4
		}
		fmt.Printf("kernel routing: (%d, %d)-tolerant, separator %v\n", bound, inf.T, inf.Separator)
		return r, [2]int{bound, inf.T}, nil
	case "circular":
		r, inf, err := ftroute.Circular(g, ftroute.Options{})
		if err != nil {
			return nil, [2]int{}, err
		}
		fmt.Printf("circular routing: (6, %d)-tolerant, K=%d\n", inf.T, inf.K)
		return r, [2]int{6, inf.T}, nil
	case "tricircular":
		r, inf, err := ftroute.TriCircular(g, ftroute.Options{})
		if err != nil {
			return nil, [2]int{}, err
		}
		fmt.Printf("tri-circular routing: (%d, %d)-tolerant, K=%d\n", inf.Bound, inf.T, inf.K)
		return r, [2]int{inf.Bound, inf.T}, nil
	case "bipolar":
		r, inf, err := ftroute.BipolarUnidirectional(g, ftroute.Options{})
		if err != nil {
			return nil, [2]int{}, err
		}
		fmt.Printf("unidirectional bipolar routing: (4, %d)-tolerant, roots (%d, %d)\n", inf.T, inf.R1, inf.R2)
		return r, [2]int{4, inf.T}, nil
	case "bipolar-bi":
		r, inf, err := ftroute.BipolarBidirectional(g, ftroute.Options{})
		if err != nil {
			return nil, [2]int{}, err
		}
		fmt.Printf("bidirectional bipolar routing: (5, %d)-tolerant, roots (%d, %d)\n", inf.T, inf.R1, inf.R2)
		return r, [2]int{5, inf.T}, nil
	case "shortest":
		r, err := ftroute.ShortestPathRouting(g)
		if err != nil {
			return nil, [2]int{}, err
		}
		k, _, err := ftroute.VertexConnectivity(g)
		if err != nil {
			return nil, [2]int{}, err
		}
		fmt.Printf("shortest-path routing (baseline): no designed tolerance, t=%d\n", k-1)
		return r, [2]int{1 << 30, k - 1}, nil
	default:
		return nil, [2]int{}, fmt.Errorf("ftroute: unknown construction %q", construction)
	}
}

func tolerate(g *ftroute.Graph, construction string, faults, samples int, seed int64, exhaustive, pruned, mixed bool) error {
	r, bt, err := build(g, construction)
	if err != nil {
		return err
	}
	f := faults
	if f < 0 {
		f = bt[1]
	}
	cfg := ftroute.EvalConfig{Mode: ftroute.Sampled, Samples: samples, Greedy: true, Seed: seed}
	if exhaustive {
		cfg = ftroute.EvalConfig{Mode: ftroute.Exhaustive, Pruned: pruned}
	}
	if mixed {
		ms, ok := r.(ftroute.MixedSurvivor)
		if !ok {
			return fmt.Errorf("ftroute: %s routing does not support mixed node+edge faults", construction)
		}
		res := ftroute.MaxDiameterUnderMixedFaultsParallel(ms, f, cfg, 0)
		fmt.Printf("worst case over mixed node+link fault sets of total size <= %d (bound %d for node faults <= %d):\n", f, bt[0], bt[1])
		if res.Disconnected {
			fmt.Printf("  disconnected by nodes %v, links %v (%d sets evaluated)\n",
				res.WorstNodeFaults, res.WorstEdgeFaults, res.Evaluated)
		} else {
			fmt.Printf("  surviving diameter %d (worst nodes %v, links %v; %d sets evaluated)\n",
				res.MaxDiameter, res.WorstNodeFaults, res.WorstEdgeFaults, res.Evaluated)
		}
		fmt.Printf("worst-case surviving diameter by exact mixed fault-set size:\n")
		for k, d := range ftroute.MixedDiameterProfile(ms, f, cfg) {
			status := ""
			if d < 0 {
				status = "  DISCONNECTED"
			}
			fmt.Printf("  |F|+|E| = %d: %s%s\n", k, diam(d), status)
		}
		return nil
	}
	profile := ftroute.DiameterProfile(r, f, cfg)
	fmt.Printf("worst-case surviving diameter by fault count (bound %d for f <= %d):\n", bt[0], bt[1])
	for k, d := range profile {
		status := ""
		if d < 0 {
			status = "  DISCONNECTED"
		} else if k <= bt[1] && d > bt[0] && bt[0] < 1<<29 {
			status = "  EXCEEDS BOUND"
		}
		fmt.Printf("  |F| = %d: %s%s\n", k, diam(d), status)
	}
	return nil
}

func diam(d int) string {
	if d < 0 {
		return "inf"
	}
	return strconv.Itoa(d)
}
