// Command perfbench is the repository's end-to-end benchmark. It runs
// one pipeline workload — generate a graph, construct a routing or
// compile failover tables, search fault sets, replay traffic — calling
// the same layer functions as the ftroute CLI and timing each call from
// outside. Every repetition checks its outputs; a failed check counts
// as a failed operation.
//
//	python3 perfbench/run.py --workload mixed-rr160 --seed 1 --seconds 50 --trace 0
//
// (from the repository root; run.py builds this package and runs it
// with the same flags). With -trace 0 it reports the end-to-end metrics,
// medians over the repetitions that fit in -seconds: verify_s, setup_s
// and peak_rss_mb. With -trace 1 it alternates untraced and traced
// repetitions, then probes the kernels of the last repetition's
// compiled instance, and reports the per-layer metrics; the spans go to
// the -trace-out file. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// reference.json records why each workload was chosen, the stage
// shares measured when the benchmark was defined, and which end-to-end
// metric each per-layer metric should move.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is a reported metric: its name and unit.
type metric struct{ name, unit string }

// endToEnd are the metrics of untraced runs.
var endToEnd = []metric{
	{"verify_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of traced runs.
var perLayer = []metric{
	{"gen.s", "s"},
	{"core.construct_s", "s"},
	{"core.alloc_mb", "MB"},
	{"core.gc_cycles", "count"},
	{"core.routes", "count"},
	{"core.route_hops", "count"},
	{"routing.shortest_s", "s"},
	{"routing.tables_s", "s"},
	{"routing.reinforce_s", "s"},
	{"routing.reinforce_alloc_mb", "MB"},
	{"routing.table_entries", "count"},
	{"eval.search_s", "s"},
	{"eval.sets", "count"},
	{"eval.sets_per_s", "1/s"},
	{"eval.search_alloc_mb", "MB"},
	{"eval.adversary_s", "s"},
	{"eval.adversary_sets", "count"},
	{"eval.compile_s", "s"},
	{"eval.compile_mb", "MB"},
	{"eval.diameter_us", "us"},
	{"eval.node_toggle_us", "us"},
	{"eval.edge_toggle_us", "us"},
	{"eval.walk_compile_s", "s"},
	{"eval.cut_toggle_us", "us"},
	{"netsim.replay_s", "s"},
	{"netsim.msgs_per_s", "1/s"},
	{"netsim.delivered", "count"},
	{"netsim.hops", "count"},
	{"netsim.retries", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_s", "s"},
	{"trace.uncovered_s", "s"},
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names(), ", "))
	seed := fs.Int64("seed", defaultSeed, "seed of the generated inputs")
	seconds := fs.Float64("seconds", 10, "measure for this long")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file of a traced run (default .bench_build/spans/<workload>-seed<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload one of %s and -trace 0 or 1\n", strings.Join(names(), ", "))
		return 2
	}
	out := *traceOut
	if *trace == 1 && out == "" {
		out = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
	}
	res, err := bench(w, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, out, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func names() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bench repeats workload w until the time is up and returns the result
// line. A traced run also writes its spans to traceOut.
func bench(w workload, name string, seed int64, budget time.Duration, traced bool, traceOut string, stdout, stderr io.Writer) (result, error) {
	var reps []*rep
	var last instance
	start := time.Now()
	for i := 0; ; i++ {
		r := newRep(i, traced && i%2 == 1)
		last = repeat(w, r, seed)
		reps = append(reps, r)
		for _, f := range r.fails {
			fmt.Fprintf(stderr, "perfbench: %s seed %d rep %d: check failed: %s\n", name, seed, i, f)
		}
		if (!traced || i >= 1) && time.Since(start)+r.verify > budget {
			break
		}
	}

	res := result{Attempted: len(reps), Metrics: map[string]value{}}
	for _, r := range reps {
		if len(r.fails) > 0 {
			res.Failed++
		}
	}
	pick := func(traced bool, f func(*rep) float64) []float64 {
		var xs []float64
		for _, r := range reps {
			if r.traced == traced {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	verify := func(r *rep) float64 { return r.verify.Seconds() }
	setup := func(r *rep) float64 { return r.setup.Seconds() }
	rss := func(r *rep) float64 { return r.rssMB }

	if !traced {
		values := map[string]float64{
			"verify_s":    median(pick(false, verify)),
			"setup_s":     median(pick(false, setup)),
			"peak_rss_mb": median(pick(false, rss)),
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = value{values[m.name], m.unit}
		}
		fmt.Fprintf(stdout, "%s seed %d: %d repetitions, verify_s %.3f, setup_s %.3f, peak_rss_mb %.1f\n", name, seed, len(reps),
			pick(false, verify), pick(false, setup), pick(false, rss))
		res.Correct = res.Failed == 0
		return res, nil
	}

	values := map[string]float64{}
	for _, m := range perLayer {
		xs := pick(true, func(r *rep) float64 { return r.values[m.name] })
		if slices.ContainsFunc(reps, func(r *rep) bool { _, ok := r.values[m.name]; return ok }) {
			values[m.name] = median(xs)
		}
	}
	values["trace.overhead_s"] = median(pick(true, verify)) - median(pick(false, verify))
	if last != nil {
		last.probe(&prober{values: values})
	}
	var na []string
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			na = append(na, m.name)
		}
		res.Metrics[m.name] = value{v, m.unit}
	}
	fmt.Fprintf(stdout, "%s seed %d: %d repetitions (%d traced); not applicable (reported as 0): %s\n",
		name, seed, len(reps), len(pick(true, verify)), strings.Join(na, " "))
	if err := writeSpans(traceOut, name, seed, reps, na); err != nil {
		return res, err
	}
	fmt.Fprintf(stdout, "spans written to %s\n", traceOut)
	res.Correct = res.Failed == 0
	return res, nil
}

// repeat runs one repetition of w, measuring its peak resident set
// from a freshly collected heap. A panic in the pipeline is a failed
// check.
func repeat(w workload, r *rep, seed int64) (in instance) {
	runtime.GC()
	debug.FreeOSMemory()
	peak := peakRSS()
	defer func() {
		if p := recover(); p != nil {
			r.check(false, "panic: %v", p)
			r.end()
		}
		r.rssMB = peak()
	}()
	r.begin()
	in = w.run(r, seed)
	r.end()
	return in
}

// peakRSS starts measuring the process's peak resident set and returns
// a function reporting it in MiB. On Linux it resets the kernel's
// high-water mark so the peak covers only what follows; elsewhere, or
// when the reset is refused, it reports the peak of the whole process.
func peakRSS() func() float64 {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return maxRSS
	}
	return func() float64 {
		data, err := os.ReadFile("/proc/self/status")
		if err != nil {
			return maxRSS()
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 2 && f[0] == "VmHWM:" {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
		return maxRSS()
	}
}

// maxRSS is the process's peak resident set in MiB.
func maxRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// writeSpans writes the traced run's repetitions and spans as JSON.
func writeSpans(path, name string, seed int64, reps []*rep, na []string) error {
	type repOut struct {
		ID       int      `json:"id"`
		Traced   bool     `json:"traced"`
		VerifyNs int64    `json:"verify_ns"`
		SetupNs  int64    `json:"setup_ns"`
		Fails    []string `json:"failed_checks,omitempty"`
	}
	out := struct {
		Workload      string   `json:"workload"`
		Seed          int64    `json:"seed"`
		NotApplicable []string `json:"not_applicable"`
		Reps          []repOut `json:"reps"`
		Spans         []span   `json:"spans"`
	}{Workload: name, Seed: seed, NotApplicable: na, Spans: []span{}}
	for _, r := range reps {
		out.Reps = append(out.Reps, repOut{r.id, r.traced, r.verify.Nanoseconds(), r.setup.Nanoseconds(), r.fails})
		out.Spans = append(out.Spans, r.spans...)
	}
	data, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
