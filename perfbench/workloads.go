package main

import (
	"slices"

	"ftroute/internal/core"
	"ftroute/internal/eval"
	"ftroute/internal/gen"
	"ftroute/internal/graph"
	"ftroute/internal/netsim"
	"ftroute/internal/routing"
)

// defaultSeed is the seed whose outputs the workloads pin exactly.
const defaultSeed = 1

// workload is one pipeline the benchmark repeats. run executes one
// repetition with the given input seed, recording its stages and
// checks on r, and returns the compiled instance the traced run's
// probes call into (nil when the pipeline failed early).
type workload interface {
	run(r *rep, seed int64) instance
}

// instance is what a repetition built, kept for the kernel probes.
type instance interface {
	probe(p *prober)
}

// workloads are the benchmark's workloads at full size, by name.
var workloads = map[string]workload{
	"mixed-rr160": &mixedSearch{n: 160, degree: 3, faults: 2, pin: &mixedPin{profile: []int{2, 2, 3}}},
	"failover-ccc5": &failover{dim: 5, backups: 2, budget: 2, samples: 200, messages: 3000, retries: 2,
		pin: &failoverPin{
			plain:      eval.CutStats{Pairs: 25440, Delivered: 22642, Blackhole: 2164, Skipped: 634},
			reinforced: eval.CutStats{Pairs: 25440, Delivered: 23006, Blackhole: 1800, Skipped: 634},
			replay: [2]netsim.FailoverStats{
				{Messages: 3000, Delivered: 2904, Blackhole: 75, SkippedFault: 21, Retries: 56,
					TotalHops: 17417, MaxHops: 10, P50: 16, P99: 20, Max: 20},
				{Messages: 3000, Delivered: 2976, Blackhole: 3, SkippedFault: 21, Retries: 64, Failovers: 82,
					TotalHops: 17952, MaxHops: 14, P50: 16, P99: 30, Max: 42},
			},
		}},
}

// subsets returns the number of subsets of at most f items out of n:
// the sets an exhaustive search over that universe evaluates.
func subsets(n, f int) int {
	total, c := 0, 1
	for k := 0; k <= f && k <= n; k++ {
		total += c
		c = c * (n - k) / (k + 1)
	}
	return total
}

// mixedSearch is `ftroute tolerate -construction circular -exhaustive
// -mixed -faults f` on a seeded random regular graph: the worst
// surviving diameter over every node+link fault set of size at most f
// by the parallel search, then the per-size profile by the serial one.
type mixedSearch struct {
	n, degree, faults int
	pin               *mixedPin // exact outputs for defaultSeed
}

type mixedPin struct {
	profile []int
}

func (w *mixedSearch) run(r *rep, seed int64) instance {
	var g *graph.Graph
	var err error
	sp := r.stage("gen.random_regular", func() { g, _, err = gen.RandomRegularConnected(w.n, w.degree, seed, 100) })
	r.add("gen.s", sp.seconds())
	if err != nil {
		r.check(false, "gen: %v", err)
		return nil
	}
	rt := construct(r, g)
	if rt == nil {
		return nil
	}
	r.setupDone()

	cfg := eval.Config{Mode: eval.Exhaustive}
	var worst eval.MixedResult
	var profile []int
	sp = r.stage("eval.max_mixed_parallel", func() { worst = eval.MaxDiameterMixedParallel(rt, w.faults, cfg, 0) })
	sp2 := r.stage("eval.profile_mixed", func() { profile = eval.ProfileMixed(rt, w.faults, cfg) })
	universe := g.N() + g.M()
	searched(r, 2*subsets(universe, w.faults), sp, sp2)

	r.stage("check", func() {
		want := subsets(universe, w.faults)
		r.check(worst.Evaluated == want, "parallel search evaluated %d sets, want %d", worst.Evaluated, want)
		r.check(len(profile) == w.faults+1, "profile has %d entries, want %d", len(profile), w.faults+1)
		r.check(worst.Disconnected == slices.Contains(profile, -1),
			"parallel search disconnected=%v, profile %v", worst.Disconnected, profile)
		if !worst.Disconnected {
			r.check(worst.MaxDiameter == slices.Max(profile), "parallel worst %d, profile max %d", worst.MaxDiameter, slices.Max(profile))
		}
		size := worst.WorstNodeFaults.Count() + len(worst.WorstEdgeFaults)
		r.check(size <= w.faults, "witness has %d faults, budget %d", size, w.faults)
		eng := eval.NewEngine(rt)
		eng.SetMixedFaults(worst.WorstNodeFaults, worst.WorstEdgeFaults)
		d, ok := eng.Diameter()
		r.check(ok != worst.Disconnected && (!ok || d == worst.MaxDiameter),
			"witness recomputes to diameter %d connected=%v, search said %v", d, ok, worst)
		if pin := w.pin; pin != nil && seed == defaultSeed {
			r.check(slices.Equal(profile, pin.profile), "profile %v, pinned %v", profile, pin.profile)
		}
	})
	return engineInstance{rt}
}

// construct builds the circular routing of g with its default tolerance.
func construct(r *rep, g *graph.Graph) *routing.Routing {
	var rt *routing.Routing
	var err error
	sp := r.stage("core.circular", func() { rt, _, err = core.Circular(g, core.Options{}) })
	if err != nil {
		r.check(false, "circular construction: %v", err)
		return nil
	}
	r.add("core.construct_s", sp.seconds())
	r.add("core.alloc_mb", sp.allocMB())
	r.add("core.gc_cycles", float64(sp.GCCycles))
	if r.traced {
		r.stage("trace.count_routes", func() {
			hops := 0
			rt.Each(func(_, _ int, p routing.Path) { hops += len(p) - 1 })
			r.add("core.routes", float64(rt.Len()))
			r.add("core.route_hops", float64(hops))
		})
	}
	return rt
}

// searched records the search stage's values: sets is the exact number
// of fault sets the search calls in spans evaluated.
func searched(r *rep, sets int, spans ...span) {
	secs := 0.0
	for _, sp := range spans {
		secs += sp.seconds()
		r.add("eval.search_alloc_mb", sp.allocMB())
	}
	r.add("eval.search_s", secs)
	r.add("eval.sets", float64(sets))
	r.add("eval.sets_per_s", float64(sets)/secs)
}

// failover is `ftroute failover -construction shortest -mixed` on
// CCC(dim): plain and reinforced static-failover tables, the sampled +
// greedy + concentrator mixed adversary against each, and a netsim
// replay of the plain tables' worst set (injected at a third of the
// messages, repaired at two thirds) through both tables. The seed
// drives the adversary's sampler and the message stream.
type failover struct {
	dim, backups, budget, samples, messages, retries int
	pin                                              *failoverPin // exact outputs for defaultSeed
}

type failoverPin struct {
	plain, reinforced eval.CutStats
	replay            [2]netsim.FailoverStats // plain, reinforced
}

func (w *failover) run(r *rep, seed int64) instance {
	var g *graph.Graph
	var err error
	sp := r.stage("gen.ccc", func() { g, err = gen.CCC(w.dim) })
	r.add("gen.s", sp.seconds())
	if err != nil {
		r.check(false, "gen: %v", err)
		return nil
	}
	var rt *routing.Routing
	sp = r.stage("routing.shortest", func() { rt, err = routing.ShortestPath(g) })
	r.add("routing.shortest_s", sp.seconds())
	if err != nil {
		r.check(false, "shortest-path routing: %v", err)
		return nil
	}
	var plain, reinforced *routing.FailoverTables
	var multi *routing.MultiRouting
	sp = r.stage("routing.tables_plain", func() { plain = routing.FailoverFromRouting(rt) })
	r.add("routing.tables_s", sp.seconds())
	sp = r.stage("routing.reinforce", func() { multi, err = routing.Reinforce(rt, w.backups) })
	r.add("routing.reinforce_s", sp.seconds())
	r.add("routing.reinforce_alloc_mb", sp.allocMB())
	if err != nil {
		r.check(false, "reinforce: %v", err)
		return nil
	}
	sp = r.stage("routing.tables_reinforced", func() { reinforced = routing.CompileFailover(multi) })
	r.add("routing.tables_s", sp.seconds())
	r.add("routing.table_entries", float64(plain.Entries()+reinforced.Entries()))
	r.setupDone()

	cfg := eval.Config{Mode: eval.Sampled, Samples: w.samples, Greedy: true, Seed: seed}
	var pw, rw eval.MixedCutResult
	sp = r.stage("eval.adversary_plain", func() { pw = eval.WorstMixedFaultsParallel(plain, g, w.budget, cfg, 0) })
	sp2 := r.stage("eval.adversary_reinforced", func() { rw = eval.WorstMixedFaultsParallel(reinforced, g, w.budget, cfg, 0) })
	r.add("eval.adversary_s", sp.seconds()+sp2.seconds())
	r.add("eval.adversary_sets", float64(pw.Evaluated+rw.Evaluated))

	r.stage("check", func() {
		for _, c := range []struct {
			name   string
			tables *routing.FailoverTables
			res    eval.MixedCutResult
		}{{"plain", plain, pw}, {"reinforced", reinforced, rw}} {
			again := eval.EvaluateMixedFaults(c.tables, c.res.WorstNodes, c.res.WorstCuts)
			r.check(again == c.res.Stats, "%s adversary reported %v, its worst set recomputes to %v", c.name, c.res.Stats, again)
			r.check(len(c.res.WorstNodes)+len(c.res.WorstCuts) <= w.budget, "%s worst set %v exceeds budget %d", c.name, c.res, w.budget)
			r.check(c.res.Evaluated > 0, "%s adversary evaluated no sets", c.name)
		}
	})

	var schedule []netsim.FaultEvent
	at, repair := w.messages/3, 2*w.messages/3
	for _, v := range pw.WorstNodes {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: at, Node: v},
			netsim.FaultEvent{AfterMessage: repair, Node: v, Repair: true})
	}
	for _, e := range pw.WorstCuts {
		schedule = append(schedule,
			netsim.FaultEvent{AfterMessage: at, Link: true, U: e.U, V: e.V},
			netsim.FaultEvent{AfterMessage: repair, Link: true, U: e.U, V: e.V, Repair: true})
	}
	wl := netsim.Workload{Messages: w.messages, Seed: seed}
	var replay [2]netsim.FailoverStats
	replaySecs := 0.0
	for i, c := range []struct {
		name   string
		tables *routing.FailoverTables
	}{{"plain", plain}, {"reinforced", reinforced}} {
		nw := netsim.New(rt, netsim.Params{HopCost: 1, EndpointCost: 10})
		sp = r.stage("netsim.replay_"+c.name, func() {
			replay[i], err = nw.RunFailoverWorkload(wl, schedule, netsim.FailoverParams{Tables: c.tables, Retries: w.retries})
		})
		if err != nil {
			r.check(false, "%s replay: %v", c.name, err)
			return nil
		}
		replaySecs += sp.seconds()
		r.add("netsim.delivered", float64(replay[i].Delivered))
		r.add("netsim.hops", float64(replay[i].TotalHops))
		r.add("netsim.retries", float64(replay[i].Retries))
	}
	r.add("netsim.replay_s", replaySecs)
	r.add("netsim.msgs_per_s", float64(2*w.messages)/replaySecs)

	r.stage("check", func() {
		for i, st := range replay {
			r.check(st.Messages == w.messages, "replay %d sent %d messages, want %d", i, st.Messages, w.messages)
			r.check(st.Messages == st.Delivered+st.Blackhole+st.Loop+st.SkippedFault,
				"replay %d outcomes do not add up: %v", i, st)
		}
		if pin := w.pin; pin != nil && seed == defaultSeed {
			r.check(pw.Stats == pin.plain, "plain adversary %v, pinned %v", pw.Stats, pin.plain)
			r.check(rw.Stats == pin.reinforced, "reinforced adversary %v, pinned %v", rw.Stats, pin.reinforced)
			r.check(replay == pin.replay, "replays %v, pinned %v", replay, pin.replay)
		}
	})
	return walkInstance{g: g, tables: [2]*routing.FailoverTables{plain, reinforced}}
}
