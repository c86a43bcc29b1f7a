package main

import (
	"fmt"
	"runtime"
	"time"
)

// origin is the zero of every span timestamp in the process.
var origin = time.Now()

// span is one timed call into a layer, recorded only in traced
// repetitions. Spans of one repetition share Rep; Parent is the ID of
// the enclosing span (-1 for the repetition's root). The runtime
// deltas are taken at the span's boundaries.
type span struct {
	Rep        int    `json:"rep"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	SelfNs     int64  `json:"self_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }
func (s span) allocMB() float64 { return float64(s.AllocBytes) / (1 << 20) }

// rep is one repetition of a workload's pipeline, from graph generation
// to the checked verdict. Untraced repetitions record only the set-up
// boundary and the check failures; traced ones also record a span
// around every layer call and the per-layer values derived from them.
type rep struct {
	id     int
	traced bool
	t0     time.Time
	setup  time.Duration // time to the first search call
	verify time.Duration // time of the whole repetition
	rssMB  float64       // peak resident set during the repetition
	fails  []string
	spans  []span
	values map[string]float64
	cur    int // innermost open span
}

func newRep(id int, traced bool) *rep {
	r := &rep{id: id, traced: traced, cur: -1}
	if traced {
		r.values = make(map[string]float64)
	}
	return r
}

// begin starts the repetition's clock (and its root span).
func (r *rep) begin() {
	r.t0 = time.Now()
	if r.traced {
		r.open("rep")
	}
}

// end stops the clock. A repetition that never reached its first
// search call counts its whole time as set-up.
func (r *rep) end() {
	if r.traced {
		for r.cur > 0 { // spans a panic left open
			r.close(r.cur)
		}
		root := r.close(0)
		r.add("runtime.alloc_mb", root.allocMB())
		r.add("runtime.gc_cycles", float64(root.GCCycles))
		r.add("runtime.gc_pause_ms", float64(root.GCPauseNs)/1e6)
		// A span's self time is its duration minus what its children
		// cover; children of one span run one after another.
		for i := range r.spans {
			r.spans[i].SelfNs = r.spans[i].EndNs - r.spans[i].StartNs
		}
		for _, s := range r.spans {
			if s.Parent >= 0 {
				r.spans[s.Parent].SelfNs -= s.EndNs - s.StartNs
			}
		}
		r.add("trace.uncovered_s", float64(r.spans[0].SelfNs)/1e9)
	}
	r.verify = time.Since(r.t0)
	if r.setup == 0 {
		r.setup = r.verify
	}
}

// setupDone marks the first search call.
func (r *rep) setupDone() {
	if r.setup == 0 {
		r.setup = time.Since(r.t0)
	}
}

// stage runs fn, the call into one layer. In a traced repetition it
// records a span named name around the call and returns it; untraced,
// it returns the zero span.
func (r *rep) stage(name string, fn func()) span {
	if !r.traced {
		fn()
		return span{}
	}
	id := r.open(name)
	fn()
	return r.close(id)
}

func (r *rep) open(name string) int {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := len(r.spans)
	r.spans = append(r.spans, span{
		Rep: r.id, ID: id, Parent: r.cur, Name: name,
		StartNs:    time.Since(origin).Nanoseconds(),
		AllocBytes: ms.TotalAlloc, GCCycles: ms.NumGC, GCPauseNs: ms.PauseTotalNs,
	})
	r.cur = id
	return id
}

// close ends span id, turning its start counters into deltas.
func (r *rep) close(id int) span {
	end := time.Since(origin).Nanoseconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &r.spans[id]
	s.EndNs = end
	s.AllocBytes = ms.TotalAlloc - s.AllocBytes
	s.GCCycles = ms.NumGC - s.GCCycles
	s.GCPauseNs = ms.PauseTotalNs - s.GCPauseNs
	r.cur = s.Parent
	return *s
}

// add accumulates a per-layer value; untraced repetitions keep none.
func (r *rep) add(metric string, v float64) {
	if r.traced {
		r.values[metric] += v
	}
}

// check records a failed output check.
func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}
