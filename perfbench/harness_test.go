package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"ftroute/internal/eval"
)

// tiny are the pipelines at sizes a test can afford, each with the
// per-layer metrics it must leave not applicable.
var tiny = []struct {
	name string
	w    workload
	na   []string
}{
	{"mixed-rr16", &mixedSearch{n: 16, degree: 3, faults: 2}, []string{
		"routing.shortest_s", "routing.tables_s", "routing.reinforce_s", "routing.reinforce_alloc_mb", "routing.table_entries",
		"eval.adversary_s", "eval.adversary_sets", "eval.walk_compile_s", "eval.cut_toggle_us",
		"netsim.replay_s", "netsim.msgs_per_s", "netsim.delivered", "netsim.hops", "netsim.retries",
	}},
	{"failover-ccc3", &failover{dim: 3, backups: 2, budget: 2, samples: 20, messages: 300, retries: 2}, []string{
		"core.construct_s", "core.alloc_mb", "core.gc_cycles", "core.routes", "core.route_hops",
		"eval.search_s", "eval.sets", "eval.sets_per_s", "eval.search_alloc_mb",
		"eval.compile_s", "eval.compile_mb", "eval.diameter_us", "eval.node_toggle_us", "eval.edge_toggle_us",
	}},
}

// mayBeZero are the per-layer metrics a tiny instance can leave at 0
// (or, for the overhead, below it) although their layer is called.
var mayBeZero = map[string]bool{
	"core.gc_cycles": true, "runtime.gc_cycles": true, "runtime.gc_pause_ms": true,
	"netsim.retries": true, "trace.overhead_s": true,
}

func runBench(t *testing.T, w workload, seed int64, traced bool) (result, string) {
	t.Helper()
	var out, errs bytes.Buffer
	res, err := bench(w, "test", seed, 0, traced, filepath.Join(t.TempDir(), "spans.json"), &out, &errs)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(errs.String())
	return res, out.String()
}

// Every pipeline runs end to end on a tiny instance, passes its checks,
// and reports every metric with its unit; a per-layer metric whose
// layer the pipeline does not call is reported as not applicable.
func TestTinyPipelines(t *testing.T) {
	for _, tc := range tiny {
		t.Run(tc.name, func(t *testing.T) {
			res, _ := runBench(t, tc.w, 7, false)
			if !res.Correct || res.Failed != 0 || res.Attempted != 1 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range endToEnd {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || v.Value <= 0 {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", m.name, v, m.unit)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}

			res, out := runBench(t, tc.w, 7, true)
			_, listed, _ := strings.Cut(out, "(reported as 0): ")
			listed, _, _ = strings.Cut(listed, "\n")
			if !res.Correct || res.Failed != 0 || res.Attempted != 2 {
				t.Fatalf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range perLayer {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("per-layer %s = %+v, want unit %s", m.name, v, m.unit)
				}
				na := slices.Contains(tc.na, m.name)
				if na != slices.Contains(strings.Fields(listed), m.name) {
					t.Errorf("%s: marked not applicable = %v, want %v", m.name, !na, na)
				}
				if !na && !mayBeZero[m.name] && v.Value <= 0 {
					t.Errorf("%s = %v, want a positive value", m.name, v.Value)
				}
			}
		})
	}
}

// A traced run's span file holds one root span per traced repetition,
// every stage span under a parent, and self times that add up to the
// root's duration.
func TestSpanFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "spans.json")
	if _, err := bench(tiny[1].w, "failover-ccc3", 3, 0, true, path, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Reps []struct {
			Traced   bool  `json:"traced"`
			VerifyNs int64 `json:"verify_ns"`
		} `json:"reps"`
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Reps) != 2 || file.Reps[0].Traced || !file.Reps[1].Traced {
		t.Fatalf("reps %+v, want one untraced then one traced", file.Reps)
	}
	var self int64
	var root span
	names := map[string]bool{}
	for _, s := range file.Spans {
		self += s.SelfNs
		names[s.Name] = true
		if s.Parent == -1 {
			root = s
		} else if s.Parent < 0 || s.Parent >= s.ID {
			t.Errorf("span %+v has no valid parent", s)
		}
	}
	if root.Name != "rep" || self != root.EndNs-root.StartNs || root.EndNs-root.StartNs > file.Reps[1].VerifyNs {
		t.Errorf("root %+v: self times sum to %d, repetition took %d", root, self, file.Reps[1].VerifyNs)
	}
	for _, want := range []string{"gen.ccc", "routing.shortest", "routing.reinforce", "eval.adversary_plain", "netsim.replay_reinforced", "check"} {
		if !names[want] {
			t.Errorf("no %s span in %v", want, names)
		}
	}
}

// A planted wrong expectation makes every repetition a failed operation.
func TestPlantedWrongPin(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    workload
	}{
		{"mixed", &mixedSearch{n: 16, degree: 3, faults: 2, pin: &mixedPin{profile: []int{0, 0, 0}}}},
		{"failover", &failover{dim: 3, backups: 2, budget: 2, samples: 20, messages: 300, retries: 2,
			pin: &failoverPin{plain: eval.CutStats{Pairs: 1}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				res, _ := runBench(t, tc.w, defaultSeed, traced)
				if res.Correct || res.Failed != res.Attempted {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d, want every repetition failed",
						traced, res.Correct, res.Attempted, res.Failed)
				}
			}
		})
	}
}

func TestSubsets(t *testing.T) {
	for _, tc := range []struct{ n, f, want int }{{896, 1, 897}, {400, 2, 80201}, {5, 9, 32}, {40, 0, 1}} {
		if got := subsets(tc.n, tc.f); got != tc.want {
			t.Errorf("subsets(%d, %d) = %d, want %d", tc.n, tc.f, got, tc.want)
		}
	}
}

// BENCHMARK.json names exactly the workloads and metrics the harness
// reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if !slices.Equal(ws, names()) {
		t.Errorf("BENCHMARK.json workloads %v, harness %v", ws, names())
	}
	for _, c := range []struct {
		listed []struct{ Name, Unit string }
		want   []metric
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		var got []metric
		for _, m := range c.listed {
			got = append(got, metric{m.Name, m.Unit})
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("BENCHMARK.json lists %v, harness reports %v", got, c.want)
		}
	}
}

// Bad arguments exit non-zero without a result line.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-workload", "mixed-rr160", "-trace", "2"}, {"-seconds", "x"}} {
		var out bytes.Buffer
		if code := run(args, &out, io.Discard); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}

// reference.json describes every workload and maps every per-layer
// metric to the end-to-end metrics it should move.
func TestReferenceJSON(t *testing.T) {
	data, err := os.ReadFile("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref struct {
		Workloads map[string]json.RawMessage
		LayerMap  []struct{ Metric string } `json:"layer_map"`
	}
	if err := json.Unmarshal(data, &ref); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for w := range ref.Workloads {
		ws = append(ws, w)
	}
	sort.Strings(ws)
	if !slices.Equal(ws, names()) {
		t.Errorf("reference.json describes %v, harness runs %v", ws, names())
	}
	var mapped []string
	for _, m := range ref.LayerMap {
		mapped = append(mapped, m.Metric)
	}
	var want []string
	for _, m := range perLayer {
		want = append(want, m.name)
	}
	if !slices.Equal(mapped, want) {
		t.Errorf("layer_map covers %v, want %v", mapped, want)
	}
}
