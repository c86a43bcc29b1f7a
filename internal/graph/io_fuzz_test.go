package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadEdgeList feeds arbitrary bytes to the edge-list decoder. It
// must return an error or a graph, never panic or exhaust memory, and
// every graph it accepts must survive encode∘decode unchanged, with the
// canonical encoding stable under a second round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("n 4\n0 1\n1 2\n2 3\n3 0\n"))
	f.Add([]byte("# comment\nn 3\n\n0 2\n"))
	f.Add([]byte("n 99999999999\n"))
	f.Add([]byte("n 2\n1 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := g.WriteEdgeList(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := ReadEdgeList(strings.NewReader(enc.String()))
		if err != nil {
			t.Fatalf("re-reading %q: %v", enc.String(), err)
		}
		if !g.Equal(back) {
			t.Fatalf("round trip changed the graph: %q", enc.String())
		}
		var again bytes.Buffer
		if err := back.WriteEdgeList(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != enc.String() {
			t.Fatalf("encoding not canonical: %q then %q", enc.String(), again.String())
		}
	})
}
