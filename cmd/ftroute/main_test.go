package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseGraphSpecs(t *testing.T) {
	tests := []struct {
		spec    string
		wantN   int
		wantErr bool
	}{
		{"cycle:9", 9, false},
		{"path:5", 5, false},
		{"grid:3x4", 12, false},
		{"torus:3x5", 15, false},
		{"hypercube:4", 16, false},
		{"ccc:3", 24, false},
		{"butterfly:3", 24, false},
		{"debruijn:4", 16, false},
		{"harary:3x8", 8, false},
		{"petersen", 10, false},
		{"icosahedron", 12, false},
		{"gnp:20:0.3:7", 20, false},
		{"regular:12:3:5", 12, false},
		{"cycle:2", 0, true},
		{"grid:3", 0, true},
		{"gnp:20:0.3", 0, true},
		{"gnp:20:x:1", 0, true},
		{"regular:12:3", 0, true},
		{"nosuch:4", 0, true},
	}
	for _, tc := range tests {
		t.Run(tc.spec, func(t *testing.T) {
			g, err := parseGraph(tc.spec)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("spec %q should fail", tc.spec)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if g.N() != tc.wantN {
				t.Fatalf("n = %d, want %d", g.N(), tc.wantN)
			}
		})
	}
}

func TestParseGraphFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := os.WriteFile(path, []byte("n 3\n0 1\n1 2\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	g, err := parseGraph("file:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("g = %v", g)
	}
	if _, err := parseGraph("file:" + filepath.Join(dir, "missing.txt")); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestRunUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no args should fail")
	}
	if err := run([]string{"info"}); err == nil {
		t.Fatal("missing -graph should fail")
	}
	if err := run([]string{"bogus", "-graph", "cycle:5"}); err == nil {
		t.Fatal("unknown subcommand should fail")
	}
	if err := run([]string{"info", "-nosuchflag"}); err == nil {
		t.Fatal("bad flag should fail")
	}
}

func TestRunSubcommands(t *testing.T) {
	// The subcommands print to stdout; we only assert they succeed on
	// well-formed input (output formatting is exercised manually and in
	// examples).
	cases := [][]string{
		{"info", "-graph", "cycle:9"},
		{"plan", "-graph", "cycle:12"},
		{"route", "-graph", "cycle:9", "-construction", "circular"},
		{"route", "-graph", "ccc:3", "-construction", "kernel"},
		{"route", "-graph", "cycle:10", "-construction", "bipolar"},
		{"route", "-graph", "cycle:10", "-construction", "bipolar-bi"},
		{"route", "-graph", "cycle:45", "-construction", "tricircular"},
		{"route", "-graph", "cycle:9", "-construction", "shortest"},
		{"tolerate", "-graph", "cycle:9", "-construction", "circular", "-exhaustive"},
		{"tolerate", "-graph", "cycle:12", "-construction", "auto", "-samples", "20"},
		{"tolerate", "-graph", "cycle:9", "-construction", "circular", "-exhaustive", "-mixed"},
		{"tolerate", "-graph", "cycle:12", "-construction", "circular", "-mixed", "-faults", "2", "-samples", "20"},
		{"simulate", "-graph", "cycle:12", "-construction", "kernel", "-samples", "30"},
		{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive"},
		{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20"},
		{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive", "-mixed"},
		{"failover", "-graph", "petersen", "-construction", "shortest", "-cuts", "2", "-messages", "60", "-samples", "20", "-mixed"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(args); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestRunRejectsUnknownConstruction(t *testing.T) {
	if err := run([]string{"route", "-graph", "cycle:9", "-construction", "magic"}); err == nil {
		t.Fatal("unknown construction should fail")
	}
}

func TestDiamHelper(t *testing.T) {
	if diam(-1) != "inf" || diam(3) != "3" {
		t.Fatal("diam formatting wrong")
	}
}

func TestExportAndCheckRoundTrip(t *testing.T) {
	dir := t.TempDir()
	table := filepath.Join(dir, "routing.json")
	if err := run([]string{"export", "-graph", "cycle:9", "-construction", "circular", "-table", table}); err != nil {
		t.Fatal(err)
	}
	// Theorem 10: (6,1)-tolerant; exhaustive check must pass.
	if err := run([]string{"check", "-graph", "cycle:9", "-table", table, "-bound", "6", "-exhaustive"}); err != nil {
		t.Fatal(err)
	}
	// An impossible bound must fail.
	if err := run([]string{"check", "-graph", "cycle:9", "-table", table, "-bound", "1", "-exhaustive"}); err == nil {
		t.Fatal("bound 1 should fail")
	}
	// The wrong graph must reject the table.
	if err := run([]string{"check", "-graph", "cycle:12", "-table", table, "-bound", "6"}); err == nil {
		t.Fatal("graph mismatch should fail")
	}
}

func TestCheckRequiresFlags(t *testing.T) {
	if err := run([]string{"check", "-graph", "cycle:9"}); err == nil {
		t.Fatal("missing -table should fail")
	}
	dir := t.TempDir()
	table := filepath.Join(dir, "r.json")
	if err := run([]string{"export", "-graph", "cycle:9", "-construction", "circular", "-table", table}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"check", "-graph", "cycle:9", "-table", table}); err == nil {
		t.Fatal("missing -bound should fail")
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // a pipe read fails only once w is closed
		done <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestFailoverExhaustiveModeLine pins the adversary mode line of
// failover -exhaustive. The link-cut and mixed packet-level adversaries
// enumerate every set on the WalkEngine; no flag makes them branch and
// bound, and the line must not claim otherwise.
func TestFailoverExhaustiveModeLine(t *testing.T) {
	for _, tc := range []struct {
		extra []string
		want  string
	}{
		{nil, "adversary (exhaustive, budget 1):\n"},
		{[]string{"-pruned"}, "adversary (exhaustive, orbit-pruned, budget 1):\n"},
		{[]string{"-mixed"}, "adversary (exhaustive, mixed node+link budget 1):\n"},
	} {
		args := append([]string{"failover", "-graph", "cycle:9", "-construction", "circular", "-cuts", "1", "-messages", "60", "-exhaustive"}, tc.extra...)
		out := captureStdout(t, func() error { return run(args) })
		if !strings.Contains(out, "\n"+tc.want) {
			t.Fatalf("%v: output lacks mode line %q:\n%s", tc.extra, tc.want, out)
		}
	}
	if err := run([]string{"failover", "-graph", "cycle:9", "-exhaustive", "-bounded"}); err == nil {
		t.Fatal("-bounded should be an unknown flag")
	}
}

// TestTolerateExhaustiveMixedOutput pins the full output of an
// exhaustive mixed tolerate run: the worst case, its witness and set
// count come from MaxDiameterUnderMixedFaultsParallel on the
// branch-and-bound executor, and the per-size rows from the profile.
func TestTolerateExhaustiveMixedOutput(t *testing.T) {
	const want = `auto chose kernel: (4, 2)-tolerant — fallback: kernel routing applies to every non-complete (t+1)-connected graph
worst case over mixed node+link fault sets of total size <= 2 (bound 4 for node faults <= 2):
  surviving diameter 4 (worst nodes {1,12}, links []; 1831 sets evaluated)
worst-case surviving diameter by exact mixed fault-set size:
  |F|+|E| = 0: 2
  |F|+|E| = 1: 3
  |F|+|E| = 2: 4
`
	out := captureStdout(t, func() error {
		return run([]string{"tolerate", "-graph", "ccc:3", "-exhaustive", "-mixed"})
	})
	if out != want {
		t.Fatalf("output changed:\n%s\nwant:\n%s", out, want)
	}
}
