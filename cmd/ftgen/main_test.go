package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGenerateEdgeList(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.txt")
	if err := run([]string{"-graph", "cycle:6", "-o", path}, os.Stdout); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "n 6\n") || !strings.Contains(s, "0 5") {
		t.Fatalf("edge list = %q", s)
	}
}

func TestGenerateJSONAndDot(t *testing.T) {
	dir := t.TempDir()
	for _, format := range []string{"json", "dot"} {
		path := filepath.Join(dir, "g."+format)
		if err := run([]string{"-graph", "petersen", "-o", path, "-format", format}, os.Stdout); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil || len(data) == 0 {
			t.Fatalf("%s: %v", format, err)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if err := run([]string{}, os.Stdout); err == nil {
		t.Fatal("missing spec should fail")
	}
	if err := run([]string{"-graph", "nosuch:1"}, os.Stdout); err == nil {
		t.Fatal("unknown family should fail")
	}
	if err := run([]string{"-graph", "cycle:6", "-format", "xml"}, os.Stdout); err == nil {
		t.Fatal("unknown format should fail")
	}
	if err := run([]string{"-graph", "gp:4x2"}, os.Stdout); err == nil {
		t.Fatal("bad GP params should fail")
	}
}

func TestGenerateSpecs(t *testing.T) {
	for _, spec := range []string{"gp:12x5", "wheel:9", "harary:3x9", "grid:2x3", "torus:3x3", "hypercube:3", "ccc:3", "butterfly:3", "debruijn:3", "path:4", "gnp:10:0.4:3", "regular:10:3:1"} {
		g, err := parseGraph(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if g.N() == 0 {
			t.Fatalf("%s: empty graph", spec)
		}
	}
}

// TestGenerateBadFormatKeepsFile checks a bad -format fails before -o
// is created, so an existing output file survives untouched.
func TestGenerateBadFormatKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, []byte("keep me\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-graph", "ccc:3", "-format", "bogus", "-o", path}, os.Stdout); err == nil {
		t.Fatal("unknown format should fail")
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "keep me\n" {
		t.Fatalf("existing file now %q (%v), want it untouched", data, err)
	}
}

// TestGenerateWritesSameBytes checks -o writes exactly the bytes of the
// rendered graph in every format, and that a failed write is reported.
func TestGenerateWritesSameBytes(t *testing.T) {
	g, err := parseGraph("ccc:3")
	if err != nil {
		t.Fatal(err)
	}
	var edgeList bytes.Buffer
	if err := g.WriteEdgeList(&edgeList); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for format, want := range map[string]string{
		"edgelist": edgeList.String(),
		"json":     string(js) + "\n",
		"dot":      g.DOT("G"),
	} {
		path := filepath.Join(dir, "g."+format)
		if err := run([]string{"-graph", "ccc:3", "-format", format, "-o", path}, os.Stdout); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s: wrote %q (%v), want %q", format, got, err, want)
		}
	}
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full to provoke a write failure")
	}
	if err := run([]string{"-graph", "ccc:3", "-o", "/dev/full"}, os.Stdout); err == nil {
		t.Fatal("writing to a full device reported success")
	}
}
