package main

import (
	"runtime"
	"slices"
	"time"

	"ftroute/internal/eval"
	"ftroute/internal/graph"
	"ftroute/internal/routing"
)

// prober times single calls to public methods of a workload's compiled
// instance. It runs only in the traced run, after the pipeline, so the
// untraced end-to-end numbers never include it.
type prober struct {
	values map[string]float64
}

// probeWindow is the length of one timing window of a per-call probe.
const probeWindow = 50 * time.Millisecond

// compile times build three times and records the median wall time in
// seconds under secs and the median bytes allocated, in MiB, under mb.
func (p *prober) compile(secs, mb string, build func()) {
	var ts, allocs []float64
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		build()
		ts = append(ts, time.Since(t0).Seconds())
		runtime.ReadMemStats(&after)
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	p.values[secs] = median(ts)
	if mb != "" {
		p.values[mb] = median(allocs)
	}
}

// perCall records under name the median, over five windows, of the
// mean time in microseconds of call(i) for i = 0, 1, 2, ...
func (p *prober) perCall(name string, call func(i int)) {
	var means []float64
	i := 0
	for range 5 {
		t0 := time.Now()
		calls := 0
		for time.Since(t0) < probeWindow {
			call(i)
			i++
			calls++
		}
		means = append(means, time.Since(t0).Seconds()*1e6/float64(calls))
	}
	p.values[name] = median(means)
}

// engineInstance is a routing the surviving-graph engine compiles.
type engineInstance struct{ rt *routing.Routing }

func (in engineInstance) probe(p *prober) {
	var eng *eval.Engine
	p.compile("eval.compile_s", "eval.compile_mb", func() { eng = eval.NewEngine(in.rt) })
	g := in.rt.Graph()
	edges := g.Edges()
	p.perCall("eval.diameter_us", func(int) { eng.Diameter() })
	p.perCall("eval.node_toggle_us", func(i int) {
		v := i % g.N()
		eng.AddFault(v)
		eng.RemoveFault(v)
	})
	p.perCall("eval.edge_toggle_us", func(i int) {
		e := edges[i%len(edges)]
		eng.AddEdgeFault(e[0], e[1])
		eng.RemoveEdgeFault(e[0], e[1])
	})
}

// walkInstance is a pair of failover table sets the walk engine
// compiles: plain and reinforced.
type walkInstance struct {
	g      *graph.Graph
	tables [2]*routing.FailoverTables
}

func (in walkInstance) probe(p *prober) {
	var we *eval.WalkEngine
	p.compile("eval.walk_compile_s", "", func() {
		eval.NewWalkEngine(in.tables[0], in.g)
		we = eval.NewWalkEngine(in.tables[1], in.g)
	})
	edges := in.g.Edges()
	p.perCall("eval.cut_toggle_us", func(i int) {
		e := edges[i%len(edges)]
		we.AddLinkCut(e[0], e[1])
		we.RemoveLinkCut(e[0], e[1])
	})
}

// median returns the median of xs (0 for none); xs is left unsorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
