package routing

import (
	"bytes"
	"encoding/json"
	"testing"

	"ftroute/internal/graph"
)

// fuzzWireGraph is the graph the decoder fuzz targets decode against: a
// 7-node cycle with chords, small enough that mutated input often names
// valid paths.
func fuzzWireGraph() *graph.Graph { return fuzzGraph(7, 0b1010_0101) }

// checkCanonical asserts v encodes to the same bytes twice and that
// decode∘encode reproduces them.
func checkCanonical(t *testing.T, v json.Marshaler, decode func([]byte) (json.Marshaler, error)) {
	t.Helper()
	enc, err := v.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := v.MarshalJSON(); !bytes.Equal(again, enc) {
		t.Fatalf("two encodings differ:\n%s\n%s", enc, again)
	}
	back, err := decode(enc)
	if err != nil {
		t.Fatalf("decoding an encoding failed: %v\n%s", err, enc)
	}
	if again, _ := back.MarshalJSON(); !bytes.Equal(again, enc) {
		t.Fatalf("decode∘encode changed the bytes:\n%s\n%s", enc, again)
	}
}

// FuzzDecodeRouting feeds arbitrary bytes to DecodeRouting: it must
// return an error rather than panic, and every accepted routing must
// encode canonically.
func FuzzDecodeRouting(f *testing.F) {
	g := fuzzWireGraph()
	r, err := ShortestPath(g)
	if err != nil {
		f.Fatal(err)
	}
	seed, _ := r.MarshalJSON()
	f.Add(seed)
	f.Add([]byte(`{"nodes":7,"bidirectional":false,"routes":[[0,1,2],[3,2]]}`))
	f.Add([]byte(`{"nodes":7,"bidirectional":true,"routes":[[2,1,0],[0,1,2]]}`))
	f.Add([]byte(`{"nodes":7,"routes":[[0],[9,1]]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRouting(g, data)
		if err != nil {
			return
		}
		checkCanonical(t, r, func(b []byte) (json.Marshaler, error) { return DecodeRouting(g, b) })
	})
}

// FuzzDecodeMultiRouting is the multirouting analogue of
// FuzzDecodeRouting, and additionally pins CompileFailover of every
// accepted multirouting to the map-based oracle builder.
func FuzzDecodeMultiRouting(f *testing.F) {
	g := fuzzWireGraph()
	r, err := ShortestPath(g)
	if err != nil {
		f.Fatal(err)
	}
	m, err := Reinforce(r, 2)
	if err != nil {
		f.Fatal(err)
	}
	seed, _ := m.MarshalJSON()
	f.Add(seed)
	f.Add([]byte(`{"nodes":7,"limit":2,"bidirectional":true,"routes":[[[0,1,2],[0,6,5,4,3,2]],[[1,2]]]}`))
	f.Add([]byte(`{"nodes":7,"limit":0,"bidirectional":false,"routes":[[[0,1,2,3],[0,1,3]],[[3,2,1,0]]]}`))
	f.Add([]byte(`{"nodes":7,"limit":1,"routes":[[[0,1]],[[0,6,1]]]}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeMultiRouting(g, data)
		if err != nil {
			return
		}
		checkCanonical(t, m, func(b []byte) (json.Marshaler, error) { return DecodeMultiRouting(g, b) })
		checkTablesMatch(t, g, CompileFailover(m), oracleCompile(m), 1)
	})
}
