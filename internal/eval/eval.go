// Package eval measures the fault tolerance of routings: it searches
// over fault sets F (exhaustively, by random sampling, or by greedy
// adversarial growth), computes the diameter of each surviving route
// graph R(G,ρ)/F, and checks the (d, f)-tolerance claims of the paper's
// theorems.
//
// # Evaluation engine
//
// All searches share one access pattern: consecutive fault sets differ
// by a single node (the exhaustive enumeration tree, the greedy
// adversary and the concentrator adversary each add or remove one
// fault at a time). The package exploits this with Engine, which
// compiles a routing once into flat arrays — an inverted index from
// each node to the routes traversing it, and per-route/per-pair fault
// counters — so toggling one fault updates only the arcs whose routes
// actually pass through that node, instead of rebuilding R(G,ρ)/F from
// all n² routes. The live surviving graph is kept as packed uint64
// adjacency bitrows and diameters are computed by word-parallel BFS
// (64 nodes per machine word, allocation-free), with an early-exit
// DiameterAtMost path for tolerance checking.
//
// Every entry point (MaxDiameter, MaxDiameterParallel, Profile,
// CheckTolerance, BeyondTolerance, ConcentratorAdversary) routes
// through the engine automatically whenever the Survivor also
// implements RouteSource — true for *routing.Routing and
// *routing.MultiRouting — and produces bit-for-bit identical results
// to the legacy SurvivingGraph+Diameter path, which is retained as a
// compatibility fallback for custom Survivor implementations.
//
// # Mixed fault model
//
// The paper reduces edge faults to node faults by declaring one
// endpoint of a failed link faulty (Section 1). The engine also
// implements the literal mixed model directly: AddEdgeFault and
// RemoveEdgeFault toggle undirected link failures through an inverted
// edge→routes index, sharing the per-route fault counters with node
// faults, so a route dies iff it contains a faulty node or traverses a
// faulty edge. On top of that sit mixed-fault searches over the
// combined universe of n nodes and m edges: MaxDiameterMixed
// (exhaustive and sampled), MaxDiameterMixedParallel (per-worker
// clones, work stealing over enumeration prefixes), GreedyEdgeAdversary
// (the pure link-cutting adversary), ConcentratorEdgeAdversary (subsets
// of a target link set) and BeyondToleranceMixed (Open Problem 3 with
// link cuts shaping the components of G−F). Each is bit-for-bit
// equivalent to the rebuild-per-set SurvivingGraphMixed reference,
// which MixedSurvivor values retain as a fallback.
package eval

import (
	"fmt"
	"math/rand"
	"runtime"

	"ftroute/internal/graph"
)

// Survivor is the routing-side interface eval needs: anything that can
// produce a surviving route graph for a fault set. Both *routing.Routing
// and *routing.MultiRouting implement it (and also RouteSource, which
// unlocks the fast incremental engine).
type Survivor interface {
	SurvivingGraph(faults *graph.Bitset) *graph.Digraph
	Graph() *graph.Graph
}

// Mode selects how fault sets are searched.
type Mode int

const (
	// Exhaustive enumerates every fault set of size 0..f. Exact but
	// exponential; use for small graphs.
	Exhaustive Mode = iota
	// Sampled draws uniform random fault sets of size f (plus the empty
	// set), and is complemented by a greedy adversarial search.
	Sampled
)

// Config controls a tolerance measurement.
type Config struct {
	Mode    Mode
	Samples int   // number of random fault sets in Sampled mode (default 200)
	Seed    int64 // randomness for Sampled mode
	// Greedy enables, in Sampled mode, an additional greedy adversarial
	// search that grows a fault set one node at a time, always picking
	// the node that maximizes the surviving diameter.
	Greedy bool
	// Pruned enables, in Exhaustive mode, orbit pruning: when the
	// routing (or failover tables) is strictly equivariant under a
	// nontrivial subgroup of the graph's automorphism group, only one
	// canonical representative per fault-set orbit is evaluated and its
	// orbit size reconstructs the full Evaluated count. Results carry
	// the same worst scores and counts as the plain enumeration; the
	// reported witness is the canonical member of a worst orbit, which
	// may differ from the plain witness set. When the symmetry check
	// fails (or the group is trivial or too large) the search silently
	// falls back to the plain enumeration. See docs/symmetry.md.
	Pruned bool
	// Bounded enables, for MaxDiameter, MaxDiameterMixed and their
	// Parallel drivers in Exhaustive mode (plain and Pruned), branch-and-
	// bound evaluation: a best-so-far (score, unit) incumbent is threaded
	// through the enumeration (shared atomically across workers) and
	// each fault set runs the pivot-pruned diameterAbove kernel,
	// abandoning sets that cannot beat the incumbent after ~2 BFS
	// instead of computing the full diameter. Results — scores,
	// taxonomy, Evaluated, and the first-max witness — are bit-identical
	// to the plain search. Survivors that cannot enumerate their routes,
	// and Sampled mode (no enumeration tree to prune), ignore the flag.
	// Profile and ProfileMixed ignore it too: their exhaustive engine
	// path is always bounded. See docs/perf.md.
	Bounded bool
	// SkippedWeight is the λ of the mixed packet-level adversary
	// (WorstMixedFaults): fault sets are ranked by the score
	// disrupted + λ·skipped instead of disrupted pairs alone, letting
	// the adversary trade stranded packets against dead endpoints. The
	// default 0 preserves the pure-disruption objective bit for bit.
	SkippedWeight float64
}

// Result reports the worst case found.
type Result struct {
	MaxDiameter  int           // largest surviving diameter observed
	Disconnected bool          // some fault set disconnected the surviving graph
	WorstFaults  *graph.Bitset // a fault set achieving the reported worst case
	Evaluated    int           // number of fault sets evaluated
}

// String renders a result compactly.
func (r Result) String() string {
	if r.Disconnected {
		return fmt.Sprintf("disconnected (worst F=%v, %d sets)", r.WorstFaults, r.Evaluated)
	}
	return fmt.Sprintf("max diameter %d (worst F=%v, %d sets)", r.MaxDiameter, r.WorstFaults, r.Evaluated)
}

// MaxDiameter searches fault sets of size at most f and returns the
// worst surviving diameter found. Disconnection (some ordered pair with
// no surviving path) dominates any finite diameter.
func MaxDiameter(s Survivor, f int, cfg Config) Result {
	switch cfg.Mode {
	case Exhaustive:
		if cfg.Pruned {
			if res, ok := exhaustivePruned(s, f, 1, cfg.Bounded); ok {
				return res
			}
		}
		if cfg.Bounded {
			if eng := engineFor(s); eng != nil {
				return eng.boundedSearch(nil, f, 1).node()
			}
		}
		return exhaustive(s, f)
	default:
		return sampled(s, f, cfg)
	}
}

// evalOne evaluates one fault set through the legacy rebuild-per-set
// path, folding it into the result. Engine.fold is the incremental
// equivalent; the two must agree bit for bit.
func evalOne(s Survivor, faults *graph.Bitset, res *Result) {
	res.Evaluated++
	d := s.SurvivingGraph(faults)
	if d.EnabledCount() <= 1 {
		return // nothing to route between
	}
	diam, ok := d.Diameter()
	if !ok {
		if !res.Disconnected {
			res.Disconnected = true
			res.WorstFaults = faults.Clone()
		}
		return
	}
	if !res.Disconnected && diam > res.MaxDiameter {
		res.MaxDiameter = diam
		res.WorstFaults = faults.Clone()
	}
}

// exhaustive enumerates all fault sets of size 0..f. A negative budget
// means the empty set only.
func exhaustive(s Survivor, f int) Result {
	if f < 0 {
		f = 0
	}
	if eng := engineFor(s); eng != nil {
		res := Result{WorstFaults: graph.NewBitset(eng.N())}
		eng.fold(&res) // empty set
		eng.descend(0, f, &res)
		return res
	}
	n := s.Graph().N()
	res := Result{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	evalOne(s, faults, &res) // empty set
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			return
		}
		for v := start; v < n; v++ {
			faults.Add(v)
			evalOne(s, faults, &res)
			rec(v+1, left-1)
			faults.Remove(v)
		}
	}
	rec(0, f)
	return res
}

// descend walks the exhaustive enumeration subtree of fault sets that
// extend the engine's current set with nodes from start..n-1, up to
// left more faults, evaluating every set in the same preorder as the
// legacy recursion. The engine is restored on return.
func (e *Engine) descend(start, left int, res *Result) {
	if left == 0 {
		return
	}
	for v := start; v < e.n; v++ {
		e.AddFault(v)
		e.fold(res)
		e.descend(v+1, left-1, res)
		e.RemoveFault(v)
	}
}

// sampled draws random fault sets of size exactly f and optionally runs
// a greedy adversarial search. f is clamped to the node count: a fault
// set cannot contain more than n distinct nodes, and without the clamp
// the rejection-style draw below could never reach its target size.
func sampled(s Survivor, f int, cfg Config) Result {
	return sampledWith(s, engineFor(s), f, cfg)
}

// sampledWith is sampled over a caller-provided engine (nil forces the
// legacy path), so that Profile can compile the engine once and reuse
// it across fault counts. The engine must be fault-free on entry and is
// left fault-free on return.
func sampledWith(s Survivor, eng *Engine, f int, cfg Config) Result {
	n := s.Graph().N()
	if f > n {
		f = n
	}
	if f < 0 {
		f = 0
	}
	samples := cfg.Samples
	if samples <= 0 {
		samples = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res := Result{WorstFaults: graph.NewBitset(n)}
	if eng != nil {
		eng.fold(&res) // empty set
	} else {
		evalOne(s, graph.NewBitset(n), &res)
	}
	for i := 0; i < samples; i++ {
		faults := drawFaults(rng, n, f)
		if eng != nil {
			eng.SetFaults(faults)
			eng.fold(&res)
		} else {
			evalOne(s, faults, &res)
		}
	}
	if eng != nil {
		eng.Reset()
	}
	if cfg.Greedy {
		if eng != nil {
			eng.greedyAdversary(f, &res)
			eng.Reset() // the adversary leaves the grown set behind
		} else {
			greedyAdversary(s, f, &res)
		}
	}
	return res
}

// drawFaults draws one uniform fault set of size exactly f (f <= n).
func drawFaults(rng *rand.Rand, n, f int) *graph.Bitset {
	faults := graph.NewBitset(n)
	for faults.Count() < f {
		faults.Add(rng.Intn(n))
	}
	return faults
}

// greedyAdversary grows a fault set one node at a time, at each step
// keeping the node whose addition maximizes the surviving diameter
// (preferring disconnection outright). Legacy Survivor path; the
// Engine method below is the incremental equivalent.
func greedyAdversary(s Survivor, f int, res *Result) {
	n := s.Graph().N()
	faults := graph.NewBitset(n)
	for round := 0; round < f; round++ {
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := 0; v < n; v++ {
			if faults.Has(v) {
				continue
			}
			faults.Add(v)
			res.Evaluated++
			d := s.SurvivingGraph(faults)
			if d.EnabledCount() > 1 {
				diam, ok := d.Diameter()
				disc := !ok
				if disc && !bestDisc {
					bestV, bestDiam, bestDisc = v, diam, true
				} else if !disc && !bestDisc && diam > bestDiam {
					bestV, bestDiam = v, diam
				}
			}
			faults.Remove(v)
		}
		if bestV == -1 {
			break
		}
		faults.Add(bestV)
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstFaults = faults.Clone()
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstFaults = faults.Clone()
		}
	}
}

// greedyAdversary is the engine-backed greedy adversarial search: each
// candidate probe is one AddFault/RemoveFault pair instead of a full
// surviving-graph rebuild. The engine must start fault-free; it ends
// holding the grown fault set.
func (e *Engine) greedyAdversary(f int, res *Result) {
	for round := 0; round < f; round++ {
		bestV, bestDiam, bestDisc := -1, -1, false
		for v := 0; v < e.n; v++ {
			if e.HasFault(v) {
				continue
			}
			e.AddFault(v)
			res.Evaluated++
			if e.AliveCount() > 1 {
				diam, ok := e.Diameter()
				disc := !ok
				if disc && !bestDisc {
					bestV, bestDiam, bestDisc = v, diam, true
				} else if !disc && !bestDisc && diam > bestDiam {
					bestV, bestDiam = v, diam
				}
			}
			e.RemoveFault(v)
		}
		if bestV == -1 {
			break
		}
		e.AddFault(bestV)
		if bestDisc {
			if !res.Disconnected {
				res.Disconnected = true
				res.WorstFaults = e.Faults()
			}
			return
		}
		if !res.Disconnected && bestDiam > res.MaxDiameter {
			res.MaxDiameter = bestDiam
			res.WorstFaults = e.Faults()
		}
	}
}

// CheckTolerance verifies a (d, f)-tolerance claim: it returns nil when
// every evaluated fault set of size at most f leaves the surviving graph
// with diameter at most d. In Exhaustive mode this is a proof over the
// instance; in Sampled mode it is a statistical check.
//
// The exhaustive engine path checks each fault set with the early-exit
// DiameterAtMost scan and stops at the first violation, so the reported
// counterexample is the first one in enumeration order (the legacy path
// reports the globally worst set; both witness the same claim failure).
func CheckTolerance(s Survivor, d, f int, cfg Config) error {
	if cfg.Mode == Exhaustive && !cfg.Pruned {
		if eng := engineFor(s); eng != nil {
			return eng.checkTolerance(d, f)
		}
	}
	res := MaxDiameter(s, f, cfg)
	if res.Disconnected {
		return fmt.Errorf("eval: fault set %v disconnects the surviving graph (claimed (%d,%d)-tolerant)", res.WorstFaults, d, f)
	}
	if res.MaxDiameter > d {
		return fmt.Errorf("eval: fault set %v gives diameter %d (claimed (%d,%d)-tolerant)", res.WorstFaults, res.MaxDiameter, d, f)
	}
	return nil
}

// checkTolerance walks the exhaustive enumeration with the bounded
// diameter scan, returning the first (d, f)-violation found.
func (e *Engine) checkTolerance(d, f int) error {
	check := func() error {
		if e.AliveCount() <= 1 || e.DiameterAtMost(d) {
			return nil
		}
		diam, ok := e.Diameter()
		if !ok {
			return fmt.Errorf("eval: fault set %v disconnects the surviving graph (claimed (%d,%d)-tolerant)", e.faults, d, f)
		}
		return fmt.Errorf("eval: fault set %v gives diameter %d (claimed (%d,%d)-tolerant)", e.faults, diam, d, f)
	}
	if err := check(); err != nil {
		return err
	}
	var rec func(start, left int) error
	rec = func(start, left int) error {
		if left == 0 {
			return nil
		}
		for v := start; v < e.n; v++ {
			e.AddFault(v)
			if err := check(); err != nil {
				return err
			}
			if err := rec(v+1, left-1); err != nil {
				return err
			}
			e.RemoveFault(v)
		}
		return nil
	}
	return rec(0, f)
}

// Profile reports, for each fault count 0..f, the worst surviving
// diameter found (-1 encodes disconnection). It shares cfg semantics
// with MaxDiameter but evaluates each size separately, which is the
// shape of the per-fault-count tables in EXPERIMENTS.md.
//
// In Exhaustive mode on a RouteSource, Profile is always branch and
// bound, whatever cfg.Bounded says: each size runs on GOMAXPROCS
// workers whose engine clones are reused across sizes, without a
// witness, and stops at the first disconnecting set (see docs/perf.md).
func Profile(s Survivor, f int, cfg Config) []int {
	out := make([]int, f+1)
	eng := engineFor(s) // compiled once, reused across fault counts
	clones := make([]*Engine, runtime.GOMAXPROCS(0))
	for k := 0; k <= f; k++ {
		var res Result
		switch {
		case cfg.Mode == Exhaustive && eng != nil:
			res = eng.profileSearch(nil, k, clones).node()
		case cfg.Mode == Exhaustive:
			res = exhaustiveExact(s, k)
		default:
			res = sampledWith(s, eng, k, cfg)
		}
		if res.Disconnected {
			out[k] = -1
		} else {
			out[k] = res.MaxDiameter
		}
	}
	return out
}

// exhaustiveExact enumerates fault sets of size exactly k (legacy path).
func exhaustiveExact(s Survivor, k int) Result {
	n := s.Graph().N()
	res := Result{WorstFaults: graph.NewBitset(n)}
	faults := graph.NewBitset(n)
	var rec func(start, left int)
	rec = func(start, left int) {
		if left == 0 {
			evalOne(s, faults, &res)
			return
		}
		if n-start < left {
			return
		}
		for v := start; v < n; v++ {
			faults.Add(v)
			rec(v+1, left-1)
			faults.Remove(v)
		}
	}
	rec(0, k)
	return res
}
